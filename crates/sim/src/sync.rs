//! Event ordering and cross-shard message vocabulary for the sharded
//! engine.
//!
//! # The event-ordering contract
//!
//! Every shard (one per machine node) runs its own [`EventQueue`] of
//! [`QueuedEvent`]s ordered by `(time, seq)`. `seq` is a **per-shard**
//! monotonically increasing insertion counter — the original engine used
//! one engine-global counter, which only works when there is exactly one
//! event loop. The contract that keeps the serial oracle and the
//! parallel engine bit-identical is:
//!
//! 1. *Same timestamp ⇒ same winner.* Within a shard, events with equal
//!    timestamps fire in insertion order, and insertion order is a pure
//!    function of the shard's own deterministic execution: local pushes
//!    happen while the shard processes its queue in `(time, seq)` order,
//!    and cross-shard messages are appended at each round boundary in
//!    `(source shard, emission order)` order — each worker pulls its
//!    shards' messages from the other workers' contiguous blocks in
//!    block order, identically at every worker count.
//!
//!    The queue is a min-heap plus a *same-time lane*: a FIFO holding
//!    events pushed at exactly the lane's timestamp (the one being
//!    processed), which most wake-ups are. Pop takes the heap top when
//!    its time is ≤ the lane front's, otherwise the lane front. That is
//!    still `(time, seq)` order: lane entries share one timestamp and
//!    arrive in `seq` order, the lane's timestamp moves only while the
//!    lane is empty, so every heap entry at that timestamp was pushed
//!    before every lane entry and carries a lower `seq`. Times compare
//!    with `total_cmp`, so `-0.0` and `+0.0` stay distinct.
//! 2. *Rounds are barriers.* A round processes, on every shard
//!    independently, all events strictly below the conservative bound
//!    `fmin + L` (`fmin` = the globally earliest pending event, `L` =
//!    the minimum cross-node lookahead). Any message a shard emits while
//!    processing an event at time `t` carries a timestamp `≥ t + L ≥
//!    fmin + L`, so no message can land inside the round that produced
//!    it: shards never observe each other mid-round, and the per-shard
//!    event sequences are independent of who executes which shard, in
//!    what order, on how many threads.
//!
//! Together these give *schedule independence*: the round loop on one
//! worker (the serial oracle) and on several produces the same per-shard
//! event sequences, hence bit-identical reports. The contract is pinned
//! by the unit tests below and by the differential tier in
//! `tests/sim_parallel.rs`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::config::SimError;
use crate::flow::FlowId;

/// A discrete event on one shard's queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Ev {
    /// Re-run a thread block's state machine (generation-checked).
    TbWake { tb: usize, gen: u64 },
    /// An intra-node fluid flow completed (generation-checked).
    FlowDone { flow: FlowId, generation: u64 },
    /// A FIFO slot on `conn` becomes visible to the receiver.
    Deliver { conn: usize },
    /// A cross-node tile reached this shard's ingress NIC: charge the
    /// ingress DMA engine, then schedule `copies` deliveries.
    TileArrive {
        conn: usize,
        bytes: u64,
        wire: f64,
        copies: usize,
    },
    /// A cross-node FIFO credit returned to the sending half of `conn`.
    CreditArrive { conn: usize },
}

/// One entry of a shard's event queue, min-ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    pub time: f64,
    pub seq: u64,
    pub ev: Ev,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One shard's event queue: a `(time, seq)` min-heap beside a same-time
/// lane (see the module doc for why the pair pops in exactly the heap's
/// order). `seq` is assigned here, at push.
#[derive(Debug)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    /// Events at `lane_time`, in push (hence `seq`) order.
    lane: VecDeque<QueuedEvent>,
    /// Timestamp of the lane's events; while the lane is empty, the time
    /// of the last event popped. Moves only while the lane is empty.
    lane_time: f64,
    seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_time: f64::NEG_INFINITY,
            seq: 0,
        }
    }

    /// Enqueues `ev` at `time` behind every event already queued.
    pub(crate) fn push(&mut self, time: f64, ev: Ev) {
        let e = QueuedEvent {
            time,
            seq: self.seq,
            ev,
        };
        self.seq += 1;
        if time.total_cmp(&self.lane_time).is_eq() {
            self.lane.push_back(e);
        } else {
            self.heap.push(e);
        }
    }

    /// Where the next event sits (`true`: the heap) and its timestamp.
    /// On a tie the heap wins: its entry has the lower `seq`.
    fn front(&self) -> Option<(bool, f64)> {
        match (self.heap.peek(), self.lane.front()) {
            (Some(h), Some(l)) if h.time.total_cmp(&l.time).is_gt() => Some((false, l.time)),
            (Some(h), _) => Some((true, h.time)),
            (None, l) => l.map(|l| (false, l.time)),
        }
    }

    /// Timestamp of the next event, if any.
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.front().map(|(_, time)| time)
    }

    /// Removes and returns the `(time, seq)`-least event if `due` accepts
    /// its timestamp.
    pub(crate) fn pop_if(&mut self, due: impl FnOnce(f64) -> bool) -> Option<QueuedEvent> {
        let (from_heap, time) = self.front()?;
        if !due(time) {
            return None;
        }
        let e = if from_heap {
            self.heap.pop()
        } else {
            self.lane.pop_front()
        }?;
        if self.lane.is_empty() {
            self.lane_time = e.time;
        }
        Some(e)
    }

    /// Events queued, heap and lane together.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }
}

/// A timestamped message between shards, routed at round boundaries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Payload {
    /// A tile leaving the sender's egress NIC, addressed to the receive
    /// half of a split connection (`conn` is local to the destination
    /// shard).
    Tile {
        conn: usize,
        bytes: u64,
        wire: f64,
        copies: usize,
    },
    /// A FIFO-slot release riding the reverse link back to the send half
    /// of a split connection (`conn` is local to the destination shard).
    Credit { conn: usize },
}

/// An outbound message: destination shard, arrival timestamp, payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outbound {
    pub dst: usize,
    pub ts: f64,
    pub payload: Payload,
}

/// A structured error one shard hit, pending global resolution: the
/// winner across shards is the lexicographically smallest `(time,
/// shard)`, which is exactly the first error a global merge would hit
/// (each shard halts at its own first error, and all other events below
/// the round bound are error-free).
#[derive(Debug)]
pub(crate) struct Candidate {
    pub time: f64,
    pub shard: usize,
    pub error: SimError,
}

impl Candidate {
    /// Whether `self` beats `other` for the abort winner.
    pub fn beats(&self, other: &Self) -> bool {
        match self.time.total_cmp(&other.time) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.shard < other.shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, seq: u64) -> QueuedEvent {
        QueuedEvent {
            time,
            seq,
            ev: Ev::Deliver { conn: 0 },
        }
    }

    /// Same timestamp ⇒ insertion order wins; earlier time always wins.
    #[test]
    fn heap_breaks_ties_by_insertion_order() {
        let mut h = BinaryHeap::new();
        h.push(ev(2.0, 0));
        h.push(ev(1.0, 1));
        h.push(ev(1.0, 2));
        h.push(ev(1.0, 3));
        let order: Vec<u64> = std::iter::from_fn(|| h.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    /// `total_cmp` keeps the contract total even for exotic floats.
    #[test]
    fn heap_orders_negative_zero_and_infinities() {
        let mut h = BinaryHeap::new();
        h.push(ev(f64::INFINITY, 0));
        h.push(ev(0.0, 1));
        h.push(ev(-0.0, 2));
        // -0.0 < +0.0 under total_cmp, so seq 2 fires first.
        let order: Vec<u64> = std::iter::from_fn(|| h.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    /// Seeded random interleavings of push-at-now, push-later and pop
    /// (plus the odd push into the past), with heavy timestamp ties and
    /// both signed zeros: the heap + lane
    /// queue must pop exactly the sequence a plain `(time, seq)` heap
    /// pops.
    #[test]
    fn event_queue_pops_like_a_plain_heap() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        let times: [f64; 7] = [-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0];
        for round in 0..200 {
            let mut queue = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut seq = 0;
            let mut now = if round % 2 == 0 { 0.0 } else { -0.0 };
            let mut popped = 0;
            for _ in 0..400 {
                let time = match next(8) {
                    // Pop.
                    0..=2 => {
                        let got = queue.pop_if(|_| true);
                        let want = reference.pop();
                        assert_eq!(got.map(|e| e.seq), want.map(|e: QueuedEvent| e.seq));
                        assert_eq!(queue.len(), reference.len());
                        if let Some(e) = got {
                            assert_eq!(e.time.to_bits(), want.unwrap().time.to_bits());
                            now = e.time;
                            popped += 1;
                        }
                        continue;
                    }
                    // Push at the timestamp being processed.
                    3..=5 => now,
                    // Push at now or later, ties likely.
                    6 => {
                        let later = times[next(times.len() as u64) as usize];
                        if later.total_cmp(&now).is_ge() {
                            later
                        } else {
                            now
                        }
                    }
                    // Any time, even one already passed: the engine never
                    // does this, but the order must not depend on it.
                    _ => times[next(times.len() as u64) as usize],
                };
                let ev = Ev::Deliver { conn: 0 };
                queue.push(time, ev);
                reference.push(QueuedEvent { time, seq, ev });
                seq += 1;
                assert_eq!(
                    queue.peek_time().map(f64::to_bits),
                    reference.peek().map(|e| e.time.to_bits())
                );
            }
            while let Some(want) = reference.pop() {
                let got = queue.pop_if(|_| true).expect("queue drained early");
                assert_eq!(
                    (got.seq, got.time.to_bits()),
                    (want.seq, want.time.to_bits())
                );
                popped += 1;
            }
            assert!(queue.pop_if(|_| true).is_none());
            assert!(popped > 0);
        }
    }

    #[test]
    fn candidate_resolution_is_time_then_shard() {
        let a = Candidate {
            time: 1.0,
            shard: 5,
            error: SimError::BadConfig {
                message: "a".into(),
            },
        };
        let b = Candidate {
            time: 1.0,
            shard: 2,
            error: SimError::BadConfig {
                message: "b".into(),
            },
        };
        let c = Candidate {
            time: 0.5,
            shard: 9,
            error: SimError::BadConfig {
                message: "c".into(),
            },
        };
        assert!(b.beats(&a));
        assert!(!a.beats(&b));
        assert!(c.beats(&a) && c.beats(&b));
    }
}
