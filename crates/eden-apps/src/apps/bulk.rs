//! Case study 2 applications (§5.2): long-running bulk TCP flows whose
//! packets the enclave source-routes (ECMP/WCMP), and a sink that meters
//! delivered goodput.

use netsim::{Ctx, EdenMeta};
use transport::{App, ConnId, Stack};

/// A sender pumping `flows` long-running TCP flows to one destination.
pub struct BulkSender {
    pub dst: u32,
    pub dst_port: u16,
    pub flows: usize,
    /// Bytes per flow (large enough to outlast the measurement window).
    pub bytes_per_flow: u32,
    /// Classes stamped on every flow's messages (e.g. the load-balanced
    /// class the WCMP rule matches).
    pub classes: Vec<u32>,
    started: bool,
    next_msg_id: u64,
}

impl BulkSender {
    /// A sender of `flows` flows tagged with `classes`.
    pub fn new(
        dst: u32,
        dst_port: u16,
        flows: usize,
        bytes_per_flow: u32,
        classes: Vec<u32>,
    ) -> Self {
        BulkSender {
            dst,
            dst_port,
            flows,
            bytes_per_flow,
            classes,
            started: false,
            next_msg_id: 1,
        }
    }
}

impl App for BulkSender {
    fn on_timer(&mut self, _token: u64, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            for _ in 0..self.flows {
                stack.connect(self.dst, self.dst_port, ctx);
            }
        }
    }

    fn on_connected(&mut self, conn: ConnId, stack: &mut Stack, ctx: &mut Ctx<'_>) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let meta = EdenMeta {
            classes: self.classes.clone(),
            msg_id,
            msg_size: i64::from(self.bytes_per_flow),
            msg_start: true,
            ..Default::default()
        };
        stack.send_message(conn, self.bytes_per_flow, msg_id, Some(meta), ctx);
    }
}

/// A sink that counts in-order bytes delivered; goodput over a window is
/// the difference of two readings.
#[derive(Default)]
pub struct MeteredSink {
    pub port: u16,
    /// In-order bytes delivered.
    pub bytes: u64,
}

impl MeteredSink {
    /// A sink listening on `port`.
    pub fn new(port: u16) -> MeteredSink {
        MeteredSink {
            port,
            ..Default::default()
        }
    }
}

impl App for MeteredSink {
    fn on_timer(&mut self, _token: u64, stack: &mut Stack, _ctx: &mut Ctx<'_>) {
        stack.listen(self.port);
    }

    fn on_data(&mut self, _conn: ConnId, bytes: u32, _stack: &mut Stack, _ctx: &mut Ctx<'_>) {
        self.bytes += u64::from(bytes);
    }
}
