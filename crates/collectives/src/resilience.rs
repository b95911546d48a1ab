//! Resilience policies for collectives on a faulty fabric.
//!
//! The correctness-plane twin of `cloudtrain-simnet`'s fault injection:
//! [`CommFaults`] decides — as a pure function of a seed — which hops are
//! dropped and which members' sparse contributions are degraded, and
//! [`ResilientPeer`] wraps a [`Peer`] to apply a timeout/retry/backoff
//! policy to every hop while counting what the policy paid. Because the
//! underlying channels are reliable, "drops" and "timeouts" are *virtual*:
//! every message physically arrives exactly once, the policy only charges
//! the time a real network would have lost. That keeps the resilient
//! collectives deadlock-free by construction while their accounting tells
//! the BSP-penalty-vs-resilience story.
//!
//! Two policies, keyed by traffic class:
//!
//! * **Dense collectives** (ring, torus) must deliver every byte, so a hop
//!   that keeps dropping is retried up to [`ResiliencePolicy::max_retries`]
//!   times and then *escalated* — the final attempt always lands. The sum
//!   is exact; the cost is the full retry ladder in the tail.
//! * **Sparse collectives** (HiTopKComm, O(k), gTop-k) may *degrade*: a
//!   member whose contribution misses its deadline transmits an **empty
//!   sparse block** instead (the [`Link::contribution_missed`] gate the
//!   sparse pipelines ask at their sparsification point). Error feedback makes this safe — the member's
//!   residual absorbs the entire compensated gradient (an empty selection
//!   zeroes nothing), so the skipped mass is re-queued next step and no
//!   information is lost, only delayed.
//!
//! Replica consistency: degradation is decided per *(collective instance,
//! contributing member)* — never per hop — so every rank observes the same
//! set of contributed blocks and replicas stay bitwise identical. Hop-drop
//! outcomes are derived from per-ordered-pair hop counters kept
//! symmetrically by sender and receiver (channels are FIFO, so the
//! counters agree), with the sender charging drops/retries/escalations and
//! the receiver charging the virtual wait — nothing is double-counted.

use std::cell::{Cell, RefCell};

use crate::group::{Link, Peer};

/// Seeded fault decisions for the correctness-plane collectives.
///
/// Mirrors `cloudtrain_simnet::FaultPlan` in spirit: every decision is a
/// pure function of `(seed, identifiers)`, so the same plan over the same
/// schedule faults the same hops on every run and on every rank.
#[derive(Debug, Clone, PartialEq)]
pub struct CommFaults {
    /// Master seed for all decisions.
    pub seed: u64,
    /// Per-attempt probability that a hop is (virtually) dropped.
    pub drop_prob: f64,
    /// Per-instance probability that a member's sparse contribution misses
    /// its deadline and degrades to an empty block.
    pub degrade_prob: f64,
    /// Ranks living on straggler nodes: their contributions miss deadlines
    /// with [`CommFaults::straggler_degrade_prob`] instead.
    pub stragglers: Vec<usize>,
    /// Elevated degradation probability of straggler ranks.
    pub straggler_degrade_prob: f64,
}

impl CommFaults {
    /// A fault-free plan under `seed` (builder entry point).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            degrade_prob: 0.0,
            stragglers: Vec::new(),
            straggler_degrade_prob: 0.0,
        }
    }

    /// Sets the per-attempt hop-drop probability.
    #[must_use]
    pub fn with_drops(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop_prob out of [0,1]");
        self.drop_prob = prob;
        self
    }

    /// Sets the per-instance member-degradation probability.
    #[must_use]
    pub fn with_degrade(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "degrade_prob out of [0,1]");
        self.degrade_prob = prob;
        self
    }

    /// Marks `rank` as living on a straggler node, degrading with
    /// probability `prob` (typically well above the baseline, but below 1
    /// so the rank's gradient mass still escapes via error feedback).
    #[must_use]
    pub fn straggle(mut self, rank: usize, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "straggler prob out of [0,1]");
        self.stragglers.push(rank);
        self.straggler_degrade_prob = prob;
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_clean(&self) -> bool {
        self.drop_prob == 0.0 && self.degrade_prob == 0.0 && self.stragglers.is_empty()
    }

    /// Whether attempt `attempt` of the `hop`-th message on the ordered
    /// pair `src → dst` is dropped. Pure in all arguments; sender and
    /// receiver evaluate it with the same hop counter and agree.
    pub fn hop_dropped(&self, src: usize, dst: usize, hop: u64, attempt: u32) -> bool {
        if self.drop_prob == 0.0 {
            return false;
        }
        let pair = (src as u64) << 20 | dst as u64;
        let draw = hash3(
            self.seed ^ HOP_SALT,
            pair,
            hop.wrapping_mul(256).wrapping_add(attempt as u64),
        );
        unit(draw) < self.drop_prob
    }

    /// Whether `member`'s contribution to collective instance `instance`
    /// misses its deadline (straggler ranks use the elevated probability).
    pub fn member_degraded(&self, instance: u64, member: usize) -> bool {
        let prob = if self.stragglers.contains(&member) {
            self.straggler_degrade_prob
        } else {
            self.degrade_prob
        };
        prob > 0.0 && unit(hash3(self.seed ^ DEGRADE_SALT, instance, member as u64)) < prob
    }
}

/// Timeout/retry parameters a [`ResilientPeer`] charges faulted hops with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Virtual seconds a sender waits before declaring an attempt lost.
    pub hop_timeout: f64,
    /// Re-transmissions allowed after the first attempt.
    pub max_retries: u32,
    /// Extra wait added per attempt number (linear backoff), seconds.
    pub backoff: f64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self {
            hop_timeout: 1e-3,
            max_retries: 3,
            backoff: 5e-4,
        }
    }
}

/// What the resilience policy paid over a [`ResilientPeer`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceReport {
    /// Hops sent through the peer.
    pub hops: u64,
    /// Virtually dropped attempts (observed at the send side).
    pub drops: u64,
    /// Re-transmissions performed.
    pub retries: u64,
    /// Hops that exhausted the retry budget and were force-delivered.
    pub escalations: u64,
    /// Sparse contributions this rank degraded to empty blocks.
    pub degraded_members: u64,
    /// Virtual seconds of timeout + backoff this rank waited on receives.
    pub virtual_delay: f64,
}

/// A [`Peer`] wrapped with fault decisions and resilience accounting.
///
/// All sends physically deliver exactly once (drops are virtual), so any
/// schedule that is deadlock-free over a plain `Peer` stays deadlock-free
/// over a `ResilientPeer` — every collective runs over it unchanged through
/// the [`Link`] trait.
#[derive(Debug)]
pub struct ResilientPeer<'a> {
    peer: &'a Peer,
    faults: CommFaults,
    policy: ResiliencePolicy,
    /// Per-destination count of messages sent (ordered-pair hop counter).
    sent: RefCell<Vec<u64>>,
    /// Per-source count of messages received (the mirror counter).
    received: RefCell<Vec<u64>>,
    /// Collective instances started via [`Link::begin_instance`].
    instance: Cell<u64>,
    report: Cell<ResilienceReport>,
}

impl<'a> ResilientPeer<'a> {
    /// Wraps `peer` with a fault plan and policy.
    pub fn new(peer: &'a Peer, faults: CommFaults, policy: ResiliencePolicy) -> Self {
        let p = peer.size();
        Self {
            peer,
            faults,
            policy,
            sent: RefCell::new(vec![0; p]),
            received: RefCell::new(vec![0; p]),
            instance: Cell::new(0),
            report: Cell::new(ResilienceReport::default()),
        }
    }

    /// Cumulative resilience accounting.
    pub fn report(&self) -> ResilienceReport {
        self.report.get()
    }

    fn charge(&self, f: impl FnOnce(&mut ResilienceReport)) {
        let mut report = self.report.get();
        f(&mut report);
        self.report.set(report);
    }

    /// Walks the drop ladder of one outgoing hop, charging drops, retries
    /// and escalations. Returns nothing: the payload always goes out.
    fn charge_send(&self, to: usize) {
        let hop = {
            let mut sent = self.sent.borrow_mut();
            sent[to] += 1;
            sent[to] - 1
        };
        self.charge(|r| r.hops += 1);
        if self.faults.drop_prob == 0.0 {
            return;
        }
        let me = self.peer.rank();
        let mut attempt = 0u32;
        while self.faults.hop_dropped(me, to, hop, attempt) {
            self.charge(|r| r.drops += 1);
            if attempt == self.policy.max_retries {
                self.charge(|r| r.escalations += 1);
                break;
            }
            self.charge(|r| r.retries += 1);
            attempt += 1;
        }
    }

    /// Replays the sender's drop ladder from the receiver's side (the
    /// counters agree because channels are FIFO) and charges the virtual
    /// wait the timeouts cost this rank.
    fn charge_recv(&self, from: usize) {
        let hop = {
            let mut received = self.received.borrow_mut();
            received[from] += 1;
            received[from] - 1
        };
        if self.faults.drop_prob == 0.0 {
            return;
        }
        let me = self.peer.rank();
        let mut wait = 0.0;
        let mut attempt = 0u32;
        while self.faults.hop_dropped(from, me, hop, attempt) {
            wait += self.policy.hop_timeout + self.policy.backoff * attempt as f64;
            if attempt == self.policy.max_retries {
                break;
            }
            attempt += 1;
        }
        self.charge(|r| r.virtual_delay += wait);
    }
}

impl Link for ResilientPeer<'_> {
    fn rank(&self) -> usize {
        self.peer.rank()
    }

    fn size(&self) -> usize {
        self.peer.size()
    }

    fn send_f32(&self, to: usize, data: Vec<f32>) {
        self.charge_send(to);
        self.peer.send_f32(to, data);
    }

    fn send_u32(&self, to: usize, data: Vec<u32>) {
        self.charge_send(to);
        self.peer.send_u32(to, data);
    }

    fn recv_f32(&self, from: usize) -> Vec<f32> {
        self.charge_recv(from);
        self.peer.recv_f32(from)
    }

    fn recv_u32(&self, from: usize) -> Vec<u32> {
        self.charge_recv(from);
        self.peer.recv_u32(from)
    }

    fn begin_instance(&self) -> u64 {
        let id = self.instance.get();
        self.instance.set(id + 1);
        id
    }

    /// Whether this rank's sparse contribution to `instance` is degraded by
    /// the fault plan (straggler ranks use the elevated probability); the
    /// wire size does not enter the decision.
    fn contribution_missed(&self, instance: u64, _wire_bytes: usize) -> bool {
        let degraded = self.faults.member_degraded(instance, self.peer.rank());
        if degraded {
            self.charge(|r| r.degraded_members += 1);
        }
        degraded
    }
}

/// Domain-separation salts for the two decision streams.
const HOP_SALT: u64 = 0x40B5_40B5_40B5_40B5;
const DEGRADE_SALT: u64 = 0xDE6A_DE6A_DE6A_DE6A;

/// SplitMix64-style hash over three words (the construction every seeded
/// decision stream in this crate shares — deterministic, no global RNG).
pub(crate) fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.rotate_left(41));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use crate::gtopk::gtopk_all_reduce;
    use crate::hierarchical::tests::{check_row, hitopk_ef};
    use crate::hierarchical::{hitopk_all_reduce, Intra, Route};
    use crate::ring::ring_all_reduce_scratch;
    use crate::scratch::CommScratch;
    use crate::torus::{torus_all_reduce, torus_all_reduce_scratch};
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_compress::ErrorFeedback;
    use cloudtrain_tensor::init;
    use cloudtrain_tensor::partition::shards;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(8000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn hostile(seed: u64) -> CommFaults {
        CommFaults::new(seed)
            .with_drops(0.05)
            .with_degrade(0.2)
            .straggle(1, 0.6)
    }

    #[test]
    fn clean_faults_leave_torus_bitwise_identical() {
        let (m, n, d) = (2usize, 4usize, 53usize);
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(peer, &mut x, m, n);
            x
        });
        let resilient = run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, CommFaults::new(5), ResiliencePolicy::default());
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce_scratch(&rp, &mut x, m, n, None, &mut scratch);
            assert_eq!(rp.report().drops, 0);
            assert_eq!(rp.report().virtual_delay, 0.0);
            x
        });
        assert_eq!(plain, resilient);
    }

    #[test]
    fn dense_sum_stays_exact_under_heavy_drops() {
        let (m, n, d) = (2usize, 4usize, 40usize);
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(peer, &mut x, m, n);
            x
        });
        let reports = run_on_group(m * n, |peer| {
            let faults = CommFaults::new(77).with_drops(0.3);
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce_scratch(&rp, &mut x, m, n, None, &mut scratch);
            (x, rp.report())
        });
        let total_drops: u64 = reports.iter().map(|(_, r)| r.drops).sum();
        let total_delay: f64 = reports.iter().map(|(_, r)| r.virtual_delay).sum();
        assert!(total_drops > 0, "p=0.3 must drop something");
        assert!(total_delay > 0.0, "receivers must charge the waits");
        for (r, (x, rep)) in reports.iter().enumerate() {
            assert_eq!(*x, plain[r], "rank {r}: dense sum must stay exact");
            assert_eq!(rep.degraded_members, 0, "dense path never degrades");
            assert_eq!(rep.drops, rep.retries + rep.escalations);
        }
    }

    #[test]
    fn send_and_recv_sides_agree_on_fault_outcomes() {
        // Global reconciliation: a hop's drops charged at the sender
        // correspond to waits charged at the receiver, so across the whole
        // group (total drops > 0) <=> (total virtual delay > 0), and with a
        // symmetric all-to-all schedule each rank's numbers mirror its
        // partner's.
        let p = 4usize;
        let reports = run_on_group(p, |peer| {
            let faults = CommFaults::new(13).with_drops(0.5);
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let members: Vec<usize> = (0..p).collect();
            let mut scratch = CommScratch::new();
            for round in 0..5 {
                let mut x = vec_for(round * 10 + rp.rank(), 24);
                ring_all_reduce_scratch(&rp, &mut x, &members, &mut scratch);
            }
            rp.report()
        });
        let drops: u64 = reports.iter().map(|r| r.drops).sum();
        let policy = ResiliencePolicy::default();
        // Every drop causes exactly one timeout+backoff wait at its
        // receiver; reconstruct the total delay from the drop count bounds.
        let min_delay = drops as f64 * policy.hop_timeout;
        let max_delay =
            drops as f64 * (policy.hop_timeout + policy.backoff * policy.max_retries as f64);
        let delay: f64 = reports.iter().map(|r| r.virtual_delay).sum();
        assert!(
            delay >= min_delay - 1e-9 && delay <= max_delay + 1e-9,
            "delay {delay} outside [{min_delay}, {max_delay}] for {drops} drops"
        );
    }

    #[test]
    fn hitopk_resilient_clean_matches_plain_ef() {
        check_row("hitopk_ef: clean-resilient vs plain");
    }

    #[test]
    fn hitopk_degradation_keeps_ranks_bitwise_identical() {
        let (m, n, d, rho) = (2usize, 4usize, 120usize, 0.1f64);
        let results = run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, hostile(21), ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..4 {
                let mut x = vec_for(100 * round + peer.rank(), d);
                hitopk_ef(&rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
                out.push(x);
            }
            (out, rp.report().degraded_members)
        });
        let degraded_total: u64 = results.iter().map(|(_, g)| g).sum();
        assert!(
            degraded_total > 0,
            "hostile plan should degrade some contributions"
        );
        for (r, (out, _)) in results.iter().enumerate() {
            assert_eq!(*out, results[0].0, "rank {r} diverged under degradation");
        }
    }

    #[test]
    fn degraded_member_mass_lands_in_its_residual() {
        // Force every contribution of rank 1 to degrade; its compensated
        // shard must be fully preserved by the residual each round.
        let (m, n, d, rho) = (2usize, 2usize, 32usize, 0.25f64);
        let results = run_on_group(m * n, |peer| {
            let faults = CommFaults::new(3).straggle(1, 1.0);
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            hitopk_ef(&rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
            (ef.residual_norm(), rp.report().degraded_members)
        });
        // Rank 1 degraded: nonzero residual holding the whole shard.
        assert_eq!(results[1].1, 1);
        assert!(results[1].0 > 0.0, "degraded rank must keep its mass");
        // Rank 0 (clean, rho high enough to select) has a residual from
        // normal truncation but no degradations.
        assert_eq!(results[0].1, 0);
    }

    #[test]
    fn gtopk_resilient_completes_and_ranks_agree_under_faults() {
        let (p, d, k) = (4usize, 200usize, 10usize);
        let results = run_on_group(p, |peer| {
            let rp = ResilientPeer::new(peer, hostile(31), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(d);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..4 {
                let mut x = vec_for(20 * round + peer.rank(), d);
                gtopk_all_reduce(&rp, &mut x, k, &mut c, Some(&mut ef), &mut scratch);
                out.push(x);
            }
            (out, ef.residual_norm())
        });
        for (r, (out, _)) in results.iter().enumerate() {
            assert_eq!(*out, results[0].0, "rank {r} diverged");
            for x in out {
                assert!(x.iter().filter(|v| **v != 0.0).count() <= k);
            }
        }
    }

    #[test]
    fn resilient_paths_reach_zero_miss_steady_state() {
        // The scratch pool must stay balanced under fault-retry and
        // degradation paths too: block sizes vary (empty blocks!), but the
        // take/put flow still nets to zero.
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, hostile(17), ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            hitopk_ef(&rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
            let warm = scratch.misses();
            scratch.reset_stats();
            for round in 1..5 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                hitopk_ef(&rp, &mut y, m, n, rho, &mut c, &mut ef, &mut scratch);
            }
            (warm, scratch.misses())
        });
        for (r, (warm, steady)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(
                *steady, 0,
                "rank {r}: steady-state resilient hitopk allocated"
            );
        }
    }

    #[test]
    fn fused_exchange_charges_one_framed_message_per_inter_hop() {
        // The fused all-gather ships (values, indices) as one framed
        // message per ring hop where the staged one ships two, so under
        // drops a fused rank sends `q - 1` fewer messages per invocation
        // and walks a prefix of the staged run's per-pair hop counters.
        let (m, n, d, rho, rounds) = (3usize, 2usize, 96usize, 0.1f64, 4u64);
        let run = |intra: Intra| {
            run_on_group(m * n, |peer| {
                let rp = ResilientPeer::new(peer, hostile(31), ResiliencePolicy::default());
                let mut ef = ErrorFeedback::new(shards(d, n)[peer.rank() % n].len());
                let mut scratch = CommScratch::new();
                let mut outs = Vec::new();
                for round in 0..rounds as usize {
                    let mut x = vec_for(10 * round + peer.rank(), d);
                    let mut route = Route {
                        intra,
                        ..Route::new(m, n, rho)
                    };
                    hitopk_all_reduce(
                        &rp,
                        &mut x,
                        &mut route,
                        None,
                        &mut SortTopK,
                        Some(&mut ef),
                        &mut scratch,
                        None,
                    );
                    outs.push(x);
                }
                (outs, rp.report())
            })
        };
        let staged = run(Intra::Staged);
        let fused = run(Intra::Fused);
        let staged_drops: u64 = staged.iter().map(|(_, r)| r.drops).sum();
        assert!(staged_drops > 0, "the plan must drop something");
        for (r, ((xs, s), (xf, f))) in staged.iter().zip(&fused).enumerate() {
            assert_eq!(xs, xf, "rank {r}: aggregates differ");
            assert_eq!(s.hops - f.hops, rounds * (m as u64 - 1), "rank {r}");
            assert_eq!(s.degraded_members, f.degraded_members, "rank {r}");
            assert!(f.drops <= s.drops && f.retries <= s.retries, "rank {r}");
            assert!(f.virtual_delay <= s.virtual_delay, "rank {r}");
        }
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let f = hostile(99);
        for hop in 0..50u64 {
            assert_eq!(f.hop_dropped(0, 1, hop, 0), f.hop_dropped(0, 1, hop, 0));
        }
        for inst in 0..50u64 {
            assert_eq!(f.member_degraded(inst, 3), f.member_degraded(inst, 3));
        }
        // Straggler ranks degrade far more often than clean ranks.
        let straggler_hits = (0..1000u64).filter(|&i| f.member_degraded(i, 1)).count();
        let clean_hits = (0..1000u64).filter(|&i| f.member_degraded(i, 0)).count();
        assert!(
            straggler_hits > clean_hits,
            "straggler {straggler_hits} <= clean {clean_hits}"
        );
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn invalid_probability_panics() {
        let _ = CommFaults::new(0).with_drops(2.0);
    }
}
