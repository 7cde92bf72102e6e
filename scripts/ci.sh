#!/usr/bin/env bash
# CI gate: build, full test suite, the deterministic fault/serializability
# torture suites, and (when available) clippy as a hard error.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --no-fail-fast (full workspace, network matching — the default)"
# --no-fail-fast: one red suite must not hide the suites scheduled after it.
cargo test -q --no-fail-fast

echo "==> cargo test -q (naive matching: engine-level suites under the oracle dispatch path)"
HIPAC_MATCHING=naive cargo test -q -p hipac -p hipac-rules -p hipac-bench

echo "==> matching differential suite (naive vs network, both default modes)"
cargo test -q -p hipac --test matching_diff
HIPAC_MATCHING=naive cargo test -q -p hipac --test matching_diff

echo "==> discrimination-network property suite (prune exactness, memo staleness)"
cargo test -q -p hipac-rules --test match_properties

echo "==> match bench smoke (1k/10k rules, network vs naive dispatch)"
cargo run --release -q -p hipac-bench --bin report -- --only match --smoke

echo "==> crash matrix (deterministic, fixed seed), streaming-checkpoint and B+tree allocation counts, index atomicity"
cargo test -q -p hipac-storage --test crash_matrix --test checkpoint_stream --test btree_alloc
cargo test -q -p hipac-object --test index_atomicity

echo "==> serializability-checked stress suites"
cargo test -q -p hipac --test chaos --test coupling_stress

echo "==> parallel-firing differential suite (includes parallelism 2)"
cargo test -q -p hipac --test parallel_firing

echo "==> fanout bench smoke (N=16, 1 iteration, both parallelism levels)"
cargo run --release -q -p hipac-bench --bin report -- --only fanout --smoke

echo "==> network chaos suite (fixed seed matrix 11/22/33, exactly-once torture)"
cargo test -q -p hipac-net --test resilience

echo "==> separate-mode firing recovery (deadlock retry + dead-letter)"
cargo test -q -p hipac-rules --test rule_manager_tests separate

echo "==> netchaos bench smoke (0% vs 5% faults, seed 4242)"
cargo run --release -q -p hipac-bench --bin report -- --only netchaos --smoke --json netchaos

echo "==> crash-restart torture (fixed seeds 101/202/303, durable exactly-once)"
cargo test -q -p hipac-check --test restart_torture

echo "==> restart bench cell (recovery time + journal replay hit rate)"
cargo run --release -q -p hipac-bench --bin report -- --only restart --smoke --json restart

echo "==> replication suite (WAL shipping, replica reads, promotion)"
cargo test -q -p hipac-repl

echo "==> failover torture (fixed seeds 101/202/303, exactly-once across promotion)"
cargo test -q -p hipac-check --test failover_torture

echo "==> split-brain torture (fixed seeds 101/202/303, epoch fence + divergence repair + 3-replica quorum)"
cargo test -q -p hipac-check --test splitbrain_torture

echo "==> ReplGap resubscribe under group commit (cohort batch boundaries)"
cargo test -q -p hipac-check --test repl_gap
cargo test -q -p hipac-storage --test wal_tail gap

echo "==> repl bench cell (lag, replica vs primary serving, failover + splitbrain + quorum)"
cargo run --release -q -p hipac-bench --bin report -- --only repl --smoke --json repl

echo "==> group commit: tier-1 engine suites in both commit modes"
HIPAC_GROUP_COMMIT=on cargo test -q -p hipac -p hipac-storage
HIPAC_GROUP_COMMIT=off cargo test -q -p hipac -p hipac-storage

echo "==> group commit differential suite (on vs off, both matching modes, crash sweep)"
cargo test -q -p hipac-check --test group_commit_diff

echo "==> group crash matrix (pre-fsync / post-fsync-pre-wake) + interleaving property test"
cargo test -q -p hipac-check --test restart_torture group_commit_crash_matrix
cargo test -q -p hipac-storage --test proptests group_commit_interleavings

echo "==> reactor load suite (idle horde, slow subscriber, cross-shard dedup)"
HORDE_N=2000 cargo test -q -p hipac-net --test reactor_load

echo "==> groupcommit bench cell (substrate + full stack + push latency)"
cargo run --release -q -p hipac-bench --bin report -- --only groupcommit --smoke --json groupcommit

echo "==> multi-tenant suite (auth sessions, tenant caps, slow-subscriber eviction)"
cargo test -q -p hipac-net --test tenants

echo "==> tenant-isolation torture (fixed seeds 101/202/303, eviction crash sweep)"
cargo test -q -p hipac-check --test tenant_torture

echo "==> qos bench cell (quiet-tenant p50/p99 unloaded vs noisy-neighbor flood)"
cargo run --release -q -p hipac-bench --bin report -- --only qos --smoke --json qos

# The offline toolchain may ship without clippy; lint hard when present.
if cargo clippy --version >/dev/null 2>&1; then
  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "==> clippy unavailable in this toolchain; skipping lint"
fi

echo "==> benchmark smoke (bench/: all four workloads at 1/20 size, untraced then traced)"
bash bench/run.sh --smoke

echo "==> CI OK"
