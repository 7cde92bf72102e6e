//! Failover torture: across ≥3 seeds, kill a replicated primary
//! mid-burst under network chaos, promote its replica on the same
//! read address, and let clients retry through the partition. The
//! committed state on the promoted node must equal an uncontended
//! run's, every acked value must appear exactly once, retried
//! pre-kill commits must resolve from the *replicated* reply journal,
//! and every push must reach the replica-homed subscriber exactly
//! once per sequence number with the outbox drained.

use hipac_check::failover::{run_failover_torture, FailoverTortureConfig};

const SEEDS: [u64; 3] = [101, 202, 303];

#[test]
fn failover_torture_keeps_exactly_once_across_seeds() {
    let mut replay_evidence = 0u64;
    for seed in SEEDS {
        let report = run_failover_torture(&FailoverTortureConfig::fast(seed));

        assert!(
            report.promotions >= 1,
            "seed {seed}: promoted node does not count its promotion"
        );
        assert!(
            report.unknown.is_empty(),
            "seed {seed}: outcomes left ambiguous after failover: {:?}",
            report.unknown
        );
        // Committed-state equality with the uncontended run: same
        // values, each exactly once — no acked commit lost at the node
        // boundary, no double execution anywhere.
        assert_eq!(
            report.counts, report.expected,
            "seed {seed}: committed state diverged across the failover"
        );
        for v in &report.acked {
            assert_eq!(
                report.counts.get(v),
                Some(&1),
                "seed {seed}: acked value {v} not applied exactly once"
            );
        }
        // The reply journal crossed the node boundary via replication
        // and answers raw duplicates on the promoted server.
        assert!(
            report.journal_entries > 0,
            "seed {seed}: no reply-journal entries on the promoted node"
        );
        assert!(
            report.replay_probes > 0 && report.replay_hits == report.replay_probes,
            "seed {seed}: {} of {} raw duplicate probes replayed from the replicated journal",
            report.replay_hits,
            report.replay_probes
        );
        // Pushes: exactly once per sequence number at the replica-homed
        // subscriber, across the promotion, outbox drained.
        assert!(
            !report.push_deliveries.is_empty(),
            "seed {seed}: no pushes reached the replica-homed subscriber"
        );
        for (seq, n) in &report.push_deliveries {
            assert_eq!(
                *n, 1,
                "seed {seed}: push seq {seq} ran the handler {n} times"
            );
        }
        assert!(
            report.push_order.windows(2).all(|w| w[1] == w[0] + 1),
            "seed {seed}: handled push seqs not contiguous and increasing: {:?}",
            report.push_order
        );
        assert_eq!(
            report.unacked_after, 0,
            "seed {seed}: outbox still retains unacked pushes"
        );
        replay_evidence += report.replay_hits;
    }
    assert!(
        replay_evidence > 0,
        "no replicated-journal replay observed across any seed"
    );
}
