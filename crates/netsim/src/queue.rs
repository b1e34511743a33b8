//! Egress queueing disciplines.
//!
//! [`PriorityPort`] is the switch-port model the evaluation relies on: eight
//! 802.1p classes, strict-priority scheduling (highest PCP first), and a
//! byte-bounded drop-tail buffer per class — the "commodity features like
//! network priorities" of Table 1 that Eden assumes from switches.

use std::collections::VecDeque;

use crate::packet::Packet;

/// A byte-bounded FIFO with drop-tail admission. It holds packets by the
/// handle they travel the fabric as, so admitting and dequeuing one moves
/// eight bytes.
#[derive(Debug)]
pub struct DropTailQueue {
    queue: VecDeque<Box<Packet>>,
    bytes: usize,
    capacity_bytes: usize,
    /// Packets refused because the buffer was full.
    pub drops: u64,
    /// Packets admitted.
    pub enqueued: u64,
}

impl DropTailQueue {
    /// Queue with the given byte capacity.
    pub fn new(capacity_bytes: usize) -> Self {
        DropTailQueue {
            queue: VecDeque::new(),
            bytes: 0,
            capacity_bytes,
            drops: 0,
            enqueued: 0,
        }
    }

    /// Admit `packet` or drop it. Returns whether it was admitted.
    pub fn push(&mut self, packet: Box<Packet>) -> bool {
        let len = packet.wire_len();
        if self.bytes + len > self.capacity_bytes {
            self.drops += 1;
            false
        } else {
            self.bytes += len;
            self.queue.push_back(packet);
            self.enqueued += 1;
            true
        }
    }

    /// Dequeue the head packet.
    pub fn pop(&mut self) -> Option<Box<Packet>> {
        let p = self.queue.pop_front()?;
        self.bytes -= p.wire_len();
        Some(p)
    }

    /// Bytes currently buffered.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Packets currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// An egress port with eight strict-priority drop-tail queues.
///
/// PCP 7 is the most urgent (dequeued first), PCP 0 the least — the 802.1p
/// convention the paper's testbed switches apply.
#[derive(Debug)]
pub struct PriorityPort {
    queues: Vec<DropTailQueue>,
    /// Whether the attached serializer is currently transmitting.
    pub busy: bool,
}

impl PriorityPort {
    /// Eight queues with `per_queue_bytes` capacity each.
    pub fn new(per_queue_bytes: usize) -> Self {
        PriorityPort {
            queues: (0..8)
                .map(|_| DropTailQueue::new(per_queue_bytes))
                .collect(),
            busy: false,
        }
    }

    /// Enqueue by the packet's own 802.1p priority. Returns admission.
    pub fn enqueue(&mut self, packet: Box<Packet>) -> bool {
        let pcp = packet.priority().min(7) as usize;
        self.queues[pcp].push(packet)
    }

    /// Enqueue into an explicit class, ignoring the wire priority (host
    /// NICs use this to locally prioritize control packets without
    /// touching the 802.1Q header that switches will see).
    pub fn enqueue_with_class(&mut self, packet: Box<Packet>, class: u8) -> bool {
        self.queues[class.min(7) as usize].push(packet)
    }

    /// Dequeue from the highest-priority non-empty queue.
    pub fn dequeue(&mut self) -> Option<Box<Packet>> {
        for q in self.queues.iter_mut().rev() {
            if let Some(p) = q.pop() {
                return Some(p);
            }
        }
        None
    }

    /// Whether any queue holds packets.
    pub fn has_backlog(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// Total buffered bytes across classes.
    pub fn backlog_bytes(&self) -> usize {
        self.queues.iter().map(|q| q.bytes()).sum()
    }

    /// Total drops across classes.
    pub fn total_drops(&self) -> u64 {
        self.queues.iter().map(|q| q.drops).sum()
    }

    /// Drops in one priority class.
    pub fn drops_at(&self, pcp: u8) -> u64 {
        self.queues[pcp.min(7) as usize].drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpHeader;

    fn pkt(payload: usize, pcp: u8) -> Box<Packet> {
        let mut p = Packet::tcp(1, 2, TcpHeader::default(), payload);
        p.set_priority(pcp);
        Box::new(p)
    }

    #[test]
    fn drop_tail_respects_capacity() {
        let mut q = DropTailQueue::new(3000);
        assert!(q.push(pkt(1000, 0))); // ~1058B wire
        assert!(q.push(pkt(1000, 0)));
        assert!(!q.push(pkt(1000, 0)), "third exceeds 3000B");
        assert_eq!(q.drops, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drop_tail_fifo_order() {
        let mut q = DropTailQueue::new(1 << 20);
        for i in 0..5 {
            q.push(pkt(100 + i, 0));
        }
        let mut last = 0;
        while let Some(p) = q.pop() {
            assert!(p.payload_len > last || last == 0);
            last = p.payload_len;
        }
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn strict_priority_dequeues_high_first() {
        let mut port = PriorityPort::new(1 << 20);
        port.enqueue(pkt(1, 0));
        port.enqueue(pkt(2, 7));
        port.enqueue(pkt(3, 3));
        assert_eq!(port.dequeue().unwrap().payload_len, 2); // pcp 7
        assert_eq!(port.dequeue().unwrap().payload_len, 3); // pcp 3
        assert_eq!(port.dequeue().unwrap().payload_len, 1); // pcp 0
        assert!(port.dequeue().is_none());
    }

    #[test]
    fn per_class_isolation_on_overflow() {
        let mut port = PriorityPort::new(2200);
        // fill class 0
        assert!(port.enqueue(pkt(1000, 0)));
        assert!(port.enqueue(pkt(1000, 0)));
        assert!(!port.enqueue(pkt(1000, 0)));
        // class 7 unaffected
        assert!(port.enqueue(pkt(1000, 7)));
        assert_eq!(port.drops_at(0), 1);
        assert_eq!(port.drops_at(7), 0);
        assert_eq!(port.total_drops(), 1);
    }

    #[test]
    fn backlog_accounting() {
        let mut port = PriorityPort::new(1 << 20);
        assert!(!port.has_backlog());
        port.enqueue(pkt(100, 2));
        assert!(port.has_backlog());
        assert_eq!(port.backlog_bytes(), pkt(100, 2).wire_len());
        port.dequeue();
        assert!(!port.has_backlog());
    }
}
