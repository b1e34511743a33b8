//! Token-bucket rate limiters — the "rate limited queues" of the Pulsar
//! case study (§2.1.2).
//!
//! The defining feature, straight from the paper: a packet is charged an
//! explicit number of bytes that may differ from its wire size. A 100-byte
//! storage READ request can be charged its 64 KB *operation* size, so the
//! limiter polices the server-side cost rather than the forward-path bytes.

use std::collections::VecDeque;

use netsim::{Packet, Time};

/// A token bucket with an attached FIFO of (packet, charge) waiting for
/// tokens. Packets wait as the handles they will cross the fabric as.
#[derive(Debug)]
pub struct TokenBucket {
    /// Refill rate in bytes per second.
    rate_bytes_per_sec: f64,
    /// Maximum accumulated tokens (burst), bytes.
    burst_bytes: f64,
    tokens: f64,
    last_refill: Time,
    queue: VecDeque<(Box<Packet>, u64)>,
    /// Packets released so far.
    pub released: u64,
    /// Bytes charged so far (≥ bytes released when charges are inflated).
    pub charged_bytes: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_bps` (bits/second, to match link specs)
    /// holding at most `burst_bytes` of headroom.
    pub fn new(rate_bps: u64, burst_bytes: u64) -> TokenBucket {
        TokenBucket {
            rate_bytes_per_sec: rate_bps as f64 / 8.0,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last_refill: Time::ZERO,
            queue: VecDeque::new(),
            released: 0,
            charged_bytes: 0,
        }
    }

    fn refill(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last_refill).as_nanos() as f64 / 1e9;
        self.tokens = (self.tokens + dt * self.rate_bytes_per_sec).min(self.burst_bytes);
        self.last_refill = now;
    }

    /// Enqueue `packet` charging `charge` bytes.
    pub fn enqueue(&mut self, packet: Box<Packet>, charge: u64, now: Time) {
        self.refill(now);
        self.queue.push_back((packet, charge));
    }

    /// Release every packet whose charge fits the current tokens, in FIFO
    /// order. Returns the released packets.
    pub fn release(&mut self, now: Time) -> Vec<Box<Packet>> {
        self.refill(now);
        let mut out = Vec::new();
        while let Some((_, charge)) = self.queue.front() {
            let charge = *charge as f64;
            if charge <= self.tokens {
                let (p, c) = self.queue.pop_front().expect("peeked");
                self.tokens -= charge;
                self.released += 1;
                self.charged_bytes += c;
                out.push(p);
            } else {
                break;
            }
        }
        out
    }

    /// When the head packet will have enough tokens, if any is waiting.
    pub fn next_release_at(&self, now: Time) -> Option<Time> {
        let (_, charge) = self.queue.front()?;
        let deficit = *charge as f64 - self.tokens;
        if deficit <= 0.0 {
            return Some(now);
        }
        let secs = deficit / self.rate_bytes_per_sec;
        let ns = (secs * 1e9).ceil() as u64;
        Some(now + Time::from_nanos(ns.max(1)))
    }

    /// Packets waiting for tokens.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TcpHeader;

    fn pkt(payload: usize) -> Box<Packet> {
        Box::new(Packet::tcp(1, 2, TcpHeader::default(), payload))
    }

    #[test]
    fn releases_when_tokens_suffice() {
        // 8 Mbps = 1 MB/s; burst 1500B
        let mut tb = TokenBucket::new(8_000_000, 1500);
        tb.enqueue(pkt(960), 1000, Time::ZERO);
        let rel = tb.release(Time::ZERO);
        assert_eq!(rel.len(), 1, "burst covers the first packet");
        tb.enqueue(pkt(960), 1000, Time::ZERO);
        assert!(tb.release(Time::ZERO).is_empty(), "tokens exhausted");
        // 1000 bytes at 1 MB/s = 1ms; deficit is 500B after the first spend
        let at = tb.next_release_at(Time::ZERO).unwrap();
        assert!(at > Time::ZERO && at <= Time::from_millis(1));
        let rel = tb.release(at);
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn charge_can_exceed_packet_size() {
        // READ-style: tiny packet, huge charge
        let mut tb = TokenBucket::new(8_000_000, 65536);
        tb.enqueue(pkt(100), 65536, Time::ZERO);
        assert_eq!(tb.release(Time::ZERO).len(), 1);
        tb.enqueue(pkt(100), 65536, Time::ZERO);
        // needs a full 65536B refill at 1MB/s ≈ 65.5ms
        let at = tb.next_release_at(Time::ZERO).unwrap();
        assert!(at >= Time::from_millis(65), "{at}");
        assert_eq!(tb.charged_bytes, 65536);
    }

    #[test]
    fn fifo_order_and_head_of_line() {
        let mut tb = TokenBucket::new(8_000_000, 1000);
        tb.enqueue(pkt(900), 2000, Time::ZERO); // head too expensive
        tb.enqueue(pkt(10), 10, Time::ZERO); // cheap behind it
        assert!(
            tb.release(Time::ZERO).is_empty(),
            "head-of-line blocks (FIFO, not deficit round-robin)"
        );
        assert_eq!(tb.backlog(), 2);
    }

    #[test]
    fn burst_caps_accumulation() {
        let mut tb = TokenBucket::new(8_000_000, 1000);
        // after a long idle period tokens cap at burst
        tb.enqueue(pkt(100), 3000, Time::from_secs(10));
        assert!(tb.release(Time::from_secs(10)).is_empty());
    }
}
