//! The injector: the runtime- and simulator-facing view of a plan.
//!
//! Every planned fault is *one-shot*: it fires the first time execution
//! reaches its site and is consumed. A plan describes one incident: the
//! runtime's recovery ladder hands the injector to an op's first attempt
//! only, so a retry runs clean — which is exactly the semantics of a
//! transient fault and what makes bounded retry a sound recovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::plan::{FaultKind, FaultPlan, FaultSite, FaultSpec};

/// What the runtime must do to one FIFO delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryAction {
    /// Do not deliver the tile at all.
    Drop,
    /// Hold the tile back before delivering.
    Delay(Duration),
    /// Deliver the tile twice.
    Duplicate,
    /// Flip `bit` of the first element before delivering.
    Corrupt {
        /// Bit index into the first `f32`'s representation.
        bit: u8,
    },
}

/// What the runtime must do to one thread block at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockAction {
    /// Freeze for the duration, then continue.
    Stall(Duration),
    /// Fail the thread block immediately.
    Kill,
}

/// Shared, thread-safe injection state for one or more runs of a plan.
///
/// Workers consult it at the hook points ([`on_delivery`], [`on_block`],
/// [`link_spike`]); each spec fires at most once across the injector's
/// lifetime, and [`fired`] reports what actually struck, for error
/// messages and recovery decisions.
///
/// [`on_delivery`]: FaultInjector::on_delivery
/// [`on_block`]: FaultInjector::on_block
/// [`link_spike`]: FaultInjector::link_spike
/// [`fired`]: FaultInjector::fired
#[derive(Debug)]
pub struct FaultInjector {
    specs: Vec<FaultSpec>,
    fired: Vec<AtomicBool>,
}

impl FaultInjector {
    /// Arms every spec of `plan`.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        Self {
            fired: plan.specs.iter().map(|_| AtomicBool::new(false)).collect(),
            specs: plan.specs.clone(),
        }
    }

    /// Consumes and returns the actions for the `seq`-th delivery on
    /// `(src, dst, channel)`, in plan order.
    pub fn on_delivery(
        &self,
        src: usize,
        dst: usize,
        channel: usize,
        seq: u64,
    ) -> Vec<DeliveryAction> {
        let mut actions = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let FaultSite::Delivery {
                src: s,
                dst: d,
                channel: c,
                seq: q,
            } = spec.site
            else {
                continue;
            };
            if (s, d, c, q) != (src, dst, channel, seq) || !self.consume(i) {
                continue;
            }
            match spec.kind {
                FaultKind::DropDelivery => actions.push(DeliveryAction::Drop),
                FaultKind::DelayDelivery { micros } => {
                    actions.push(DeliveryAction::Delay(Duration::from_micros(micros)));
                }
                FaultKind::DuplicateDelivery => actions.push(DeliveryAction::Duplicate),
                FaultKind::CorruptPayload { bit } => {
                    actions.push(DeliveryAction::Corrupt { bit });
                }
                _ => {}
            }
        }
        actions
    }

    /// Consumes and returns the action for `(rank, tb)` about to run
    /// `step` (the first matching unfired spec wins).
    pub fn on_block(&self, rank: usize, tb: usize, step: usize) -> Option<BlockAction> {
        for (i, spec) in self.specs.iter().enumerate() {
            let FaultSite::Block {
                rank: r,
                tb: t,
                step: s,
            } = spec.site
            else {
                continue;
            };
            if (r, t, s) != (rank, tb, step) {
                continue;
            }
            let action = match spec.kind {
                FaultKind::StallBlock { micros } => {
                    BlockAction::Stall(Duration::from_micros(micros))
                }
                FaultKind::KillBlock => BlockAction::Kill,
                _ => continue,
            };
            if self.consume(i) {
                return Some(action);
            }
        }
        None
    }

    /// The latency multiplier for link `src -> dst`, if the plan spikes
    /// it. Not one-shot: a latency spike degrades the link for the whole
    /// run (the simulator applies it to every flow on the connection).
    #[must_use]
    pub fn link_spike(&self, src: usize, dst: usize) -> Option<f64> {
        for (i, spec) in self.specs.iter().enumerate() {
            if let (FaultSite::Link { src: s, dst: d }, FaultKind::LinkLatencySpike { permille }) =
                (spec.site, spec.kind)
            {
                if (s, d) == (src, dst) {
                    self.fired[i].store(true, Ordering::Relaxed);
                    return Some(f64::from(permille) / 1000.0);
                }
            }
        }
        None
    }

    /// The slowdown multiplier for `rank`, if the plan makes it a
    /// persistent straggler. Not one-shot: a straggler is chronically
    /// slow for the whole run (both engines scale every instruction the
    /// rank executes by this factor).
    #[must_use]
    pub fn rank_slowdown(&self, rank: usize) -> Option<f64> {
        for (i, spec) in self.specs.iter().enumerate() {
            if let (FaultSite::Rank { rank: r }, FaultKind::StragglerRank { permille }) =
                (spec.site, spec.kind)
            {
                if r == rank {
                    self.fired[i].store(true, Ordering::Relaxed);
                    return Some(f64::from(permille) / 1000.0);
                }
            }
        }
        None
    }

    /// Renders every fault that actually fired, for error context.
    #[must_use]
    pub fn fired(&self) -> Vec<String> {
        self.specs
            .iter()
            .zip(&self.fired)
            .filter(|(_, f)| f.load(Ordering::Relaxed))
            .map(|(s, _)| s.to_string())
            .collect()
    }

    fn consume(&self, i: usize) -> bool {
        !self.fired[i].swap(true, Ordering::Relaxed)
    }
}

/// Flips `bit` (modulo 32) in the first element of a payload in place;
/// the shared implementation behind [`DeliveryAction::Corrupt`].
pub fn corrupt_payload(payload: &mut [f32], bit: u8) {
    if let Some(first) = payload.first_mut() {
        *first = f32::from_bits(first.to_bits() ^ (1 << (bit % 32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_of_each() -> FaultPlan {
        FaultPlan {
            seed: 0,
            specs: vec![
                FaultSpec {
                    site: FaultSite::Delivery {
                        src: 0,
                        dst: 1,
                        channel: 0,
                        seq: 2,
                    },
                    kind: FaultKind::DropDelivery,
                },
                FaultSpec {
                    site: FaultSite::Block {
                        rank: 1,
                        tb: 0,
                        step: 3,
                    },
                    kind: FaultKind::KillBlock,
                },
                FaultSpec {
                    site: FaultSite::Link { src: 2, dst: 3 },
                    kind: FaultKind::LinkLatencySpike { permille: 2500 },
                },
                FaultSpec {
                    site: FaultSite::Rank { rank: 1 },
                    kind: FaultKind::StragglerRank { permille: 4000 },
                },
            ],
        }
    }

    #[test]
    fn faults_fire_once_at_their_site() {
        let inj = FaultInjector::new(&one_of_each());
        assert!(inj.on_delivery(0, 1, 0, 0).is_empty());
        assert_eq!(inj.on_delivery(0, 1, 0, 2), vec![DeliveryAction::Drop]);
        // One-shot: a second run over the same injector is clean.
        assert!(inj.on_delivery(0, 1, 0, 2).is_empty());
        assert_eq!(inj.on_block(1, 0, 3), Some(BlockAction::Kill));
        assert_eq!(inj.on_block(1, 0, 3), None);
        assert_eq!(inj.on_block(0, 0, 3), None);
    }

    #[test]
    fn link_spike_is_not_one_shot() {
        let inj = FaultInjector::new(&one_of_each());
        assert_eq!(inj.link_spike(2, 3), Some(2.5));
        assert_eq!(inj.link_spike(2, 3), Some(2.5));
        assert_eq!(inj.link_spike(3, 2), None);
    }

    #[test]
    fn rank_slowdown_is_not_one_shot() {
        let inj = FaultInjector::new(&one_of_each());
        assert_eq!(inj.rank_slowdown(1), Some(4.0));
        assert_eq!(inj.rank_slowdown(1), Some(4.0));
        assert_eq!(inj.rank_slowdown(0), None);
        let fired = inj.fired();
        assert_eq!(fired.len(), 1);
        assert!(fired[0].contains("straggle rank r1 x4000"), "{fired:?}");
    }

    #[test]
    fn fired_reports_what_struck() {
        let inj = FaultInjector::new(&one_of_each());
        assert!(inj.fired().is_empty());
        let _ = inj.on_block(1, 0, 3);
        let fired = inj.fired();
        assert_eq!(fired.len(), 1);
        assert!(fired[0].contains("kill block r1 tb0 step3"), "{fired:?}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut payload = vec![1.0f32, 2.0];
        corrupt_payload(&mut payload, 3);
        assert_eq!(payload[0].to_bits(), 1.0f32.to_bits() ^ 0b1000);
        assert_eq!(payload[1], 2.0);
        corrupt_payload(&mut payload, 3);
        assert_eq!(payload[0], 1.0);
    }
}
