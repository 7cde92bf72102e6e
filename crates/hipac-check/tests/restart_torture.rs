//! Crash-restart torture: across ≥3 seeds, kill the served database
//! mid-burst at a seeded storage fault point, reboot onto the same
//! data directory, and let clients retry through the partition. The
//! committed state must equal an uncontended run's, no request may
//! execute twice, retried pre-crash commits must resolve from the
//! recovered reply journal, and every push must reach the handler
//! exactly once per sequence number with the outbox drained.

use hipac_check::restart::{run_restart_torture, RestartTortureConfig};

const SEEDS: [u64; 3] = [101, 202, 303];

#[test]
fn restart_torture_keeps_exactly_once_across_seeds() {
    let mut replay_evidence = 0u64;
    for seed in SEEDS {
        let report = run_restart_torture(&RestartTortureConfig::fast(seed));

        assert!(
            report.crashed,
            "seed {seed}: armed crash at hit {} never fired",
            report.crash_hit
        );
        assert!(
            report.unknown.is_empty(),
            "seed {seed}: outcomes left ambiguous after restart: {:?}",
            report.unknown
        );
        // Committed-state equality with the uncontended run: same
        // values, each exactly once — no lost acked commit, no double
        // execution anywhere.
        assert_eq!(
            report.counts, report.expected,
            "seed {seed}: committed state diverged from the uncontended run"
        );
        for v in &report.acked {
            assert_eq!(
                report.counts.get(v),
                Some(&1),
                "seed {seed}: acked value {v} not applied exactly once"
            );
        }
        // The journal survived the crash and answers raw duplicates
        // without a live session or transaction.
        assert!(
            report.journal_entries > 0,
            "seed {seed}: no reply-journal entries survived the restart"
        );
        assert!(
            report.replay_probes > 0 && report.replay_hits == report.replay_probes,
            "seed {seed}: {} of {} raw duplicate probes replayed from the journal",
            report.replay_hits,
            report.replay_probes
        );
        // Pushes: exactly once per sequence number, outbox drained.
        assert!(
            !report.push_deliveries.is_empty(),
            "seed {seed}: no pushes reached the subscriber"
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
        replay_evidence += report.journal_replays + report.replay_hits;
    }
    // Across the seeds, the restarted servers must have actually served
    // replays out of the recovered journal.
    assert!(
        replay_evidence > 0,
        "no journal replay observed across any seed"
    );
}

/// Group-commit crash matrix: the leader dying pre-fsync refuses the
/// whole cohort (recovery may keep all members or none, never a
/// subset), and dying post-fsync pre-wake — the cohort-wide "durable
/// but unacked" window — recovers every member.
#[test]
fn group_commit_crash_matrix() {
    for seed in [3u64, 17] {
        let report = hipac_check::run_group_crash_matrix(seed, 6);
        assert_eq!(report.cohort, 6);
        assert_eq!(report.postfsync_recovered, 6);
        assert!(
            report.group_wake_hit > report.wal_sync_hit,
            "seed {seed}: wake point must follow the cohort fsync ({report:?})"
        );
        assert!(report.prefsync_recovered == 0 || report.prefsync_recovered == 6);
    }
}
