//! Classic pcap trace output: dump simulated traffic for Wireshark/tcpdump.
//!
//! Every packet is serialized through the real [`wire`]
//! encoders, so what Wireshark shows — VLAN tags, PCP bits, IPv4 checksums,
//! TCP flags — is exactly what the simulated switches saw. Virtual
//! nanoseconds map to pcap's second/microsecond timestamps starting at the
//! epoch, which keeps traces deterministic and diffable.
//!
//! ```
//! use netsim::{pcap::PcapTrace, Packet, TcpHeader, Time};
//!
//! let mut trace = PcapTrace::new();
//! let mut p = Packet::tcp(1, 2, TcpHeader::default(), 100);
//! p.set_priority(5);
//! trace.record(Time::from_micros(3), &p);
//! let bytes = trace.finish(); // write to a .pcap file
//! assert_eq!(&bytes[..4], &0xA1B2_C3D4u32.to_le_bytes());
//! ```

use crate::packet::Packet;
use crate::time::Time;
use crate::wire;

/// Pcap global-header magic (microsecond timestamps, little-endian).
pub const MAGIC: u32 = 0xA1B2_C3D4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// An in-memory pcap trace.
#[derive(Debug, Clone)]
pub struct PcapTrace {
    buf: Vec<u8>,
    /// Packets recorded.
    pub packets: u64,
}

impl Default for PcapTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl PcapTrace {
    /// A trace with the global header already written.
    pub fn new() -> PcapTrace {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes()); // version major
        buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        PcapTrace { buf, packets: 0 }
    }

    /// Append one packet at virtual time `at`.
    pub fn record(&mut self, at: Time, packet: &Packet) {
        let frame = wire::encode(packet);
        let ns = at.as_nanos();
        self.buf
            .extend_from_slice(&((ns / 1_000_000_000) as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&((ns % 1_000_000_000 / 1_000) as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes()); // incl_len
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes()); // orig_len
        self.buf.extend_from_slice(&frame);
        self.packets += 1;
    }

    /// Bytes written so far (header + records).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether only the header has been written.
    pub fn is_empty(&self) -> bool {
        self.packets == 0
    }

    /// Consume the trace, returning the complete pcap byte stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Write the trace to a file.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, &self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpHeader;

    fn sample(payload: usize) -> Packet {
        let mut p = Packet::tcp(0x0A000001, 0x0A000002, TcpHeader::default(), payload);
        p.set_priority(5);
        p.set_route_label(7);
        p
    }

    #[test]
    fn global_header_is_valid_pcap() {
        let t = PcapTrace::new();
        let bytes = t.finish();
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[..4], &MAGIC.to_le_bytes());
        assert_eq!(&bytes[20..24], &LINKTYPE_ETHERNET.to_le_bytes());
    }

    #[test]
    fn records_carry_timestamps_and_lengths() {
        let mut t = PcapTrace::new();
        let p = sample(100);
        let frame_len = p.wire_len();
        t.record(Time::from_nanos(2_500_123_456), &p);
        let bytes = t.finish();
        let rec = &bytes[24..];
        assert_eq!(&rec[..4], &2u32.to_le_bytes(), "seconds");
        assert_eq!(&rec[4..8], &500_123u32.to_le_bytes(), "microseconds");
        assert_eq!(&rec[8..12], &(frame_len as u32).to_le_bytes());
        assert_eq!(&rec[12..16], &(frame_len as u32).to_le_bytes());
        assert_eq!(rec.len(), 16 + frame_len);
    }

    #[test]
    fn recorded_frames_decode_back() {
        let mut t = PcapTrace::new();
        let p = sample(64);
        t.record(Time::ZERO, &p);
        let bytes = t.finish();
        let frame = &bytes[24 + 16..];
        let q = crate::wire::decode(frame).expect("valid frame in the trace");
        assert_eq!(q.ip, p.ip);
        assert_eq!(q.priority(), 5);
        assert_eq!(q.route_label(), 7);
    }

    #[test]
    fn multiple_records_append() {
        let mut t = PcapTrace::new();
        for i in 0..5 {
            t.record(Time::from_micros(i), &sample(10 + i as usize));
        }
        assert_eq!(t.packets, 5);
        assert!(t.len() > 24 + 5 * 16);
    }
}
