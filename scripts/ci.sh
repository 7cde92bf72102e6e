#!/usr/bin/env bash
# CI gate: build, full test suite, the deterministic fault/serializability
# torture suites, and (when available) clippy as a hard error.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --no-fail-fast (full workspace)"
# --no-fail-fast: one red suite must not hide the suites scheduled after it.
cargo test -q --no-fail-fast

echo "==> matching differential suite (naive vs network)"
cargo test -q -p hipac --test matching_diff

echo "==> compiled-rule differential suite (compiled against freshly resolved firing: results, errors, state and lock history over swept seeds, with a class recreated with reordered attributes, subclass events, a class created and fired on before commit, :param and new.x probes)"
cargo test -q -p hipac --test compiled_firing
cargo test -q -p hipac-rules --test rule_manager_tests empty_child_commit_leaves_rules_unchanged

echo "==> discrimination-network property suite (guard-chain prune soundness, compiled probe against the definition oracle, removal by derivation), the chain prune count, durable reopen and explained placement"
# match_properties includes compiled_probe_matches_the_definition_oracle
# and removal_derives_from_the_old_definition.
cargo test -q -p hipac-rules --test match_properties
cargo test -q -p hipac --test matching_diff guard_chain_prunes_rules_whose_later_link_fails
cargo test -q -p hipac --test matching_diff durable_reopen_rebuilds_the_same_network
cargo test -q -p hipac-rules --test tooling_tests explain_reports_network_placement

echo "==> transaction substrate: lock-table differential (flat table against the map-of-maps model), the parked-request count behind the lock manager's wake (back to 0 after grant, timeout, deadline, deadlock and abort), lock torture, the channel shim's wake of a parked sender (fails in 10 s instead of hanging), keyed id hasher spread (high-bit-only ids and client-chosen object lock keys included) and LockKey's keyed name digest"
cargo test -q -p hipac-txn --test proptests lock_table_matches_map_of_maps_model
cargo test -q -p hipac-txn --lib parked_count_returns_to_zero_on_every_exit
cargo test -q -p hipac-txn --test lock_torture
cargo test -q -p crossbeam --lib full_bounded_send_blocks_until_a_recv_frees_room
cargo test -q -p hipac-common --lib idhash
cargo test -q -p hipac-object --lib lock_key
# A commit takes no store write lock for a transaction that wrote
# nothing there, and leaves the generation alone.
cargo test -q -p hipac-txn --lib empty_child_commit_leaves_state_and_generation_unchanged
cargo test -q -p hipac-txn --lib refresh_committed_keeps_the_generation

echo "==> wire and record codecs: golden bytes, hostile decode, rule and catalog codecs, the WAL frame"
# wire_golden pins the bytes of every frame, reply-journal, rule and
# catalog record and requires a sample of every declared tag;
# proto_hostile fuzzes the same frames. The lib filters pick the rule
# record's and ClassDef's codec tests (strict decoding included).
# wal_golden pins one committed batch's WAL frames, CRCs included.
cargo test -q -p hipac-net --test wire_golden --test proto_hostile
cargo test -q -p hipac-storage --test wal_golden
cargo test -q -p hipac-rules --lib codec
cargo test -q -p hipac-object --lib classdef_codec

echo "==> firing-, read- and write-path allocation counts (2 000-rule wall: allocations per update, live heap per rule, zero for a clean schema read; a store_rw-shaped read: none per row, one per projected row; a store_rw-shaped durable update), the catalog and row snapshot tests"
# firing_alloc, read_alloc and write_alloc count with a global
# allocator: each is the only test in its binary. The snapshot tests in store_tests are
# pending_ddl_*, clean_reads_*, child_ddl_*, top_commit_*,
# durable_reopen_yields_*, catalog_reader_racing_ddl_commits_never_goes_back
# (the catalog) and a_row_read_before_an_update_keeps_its_old_values,
# reads_of_an_unchanged_row_share_one_allocation,
# aborts_and_child_commits_leave_the_committed_version_in_place (rows),
# prepared_query_reprepares_after_ddl (prepared queries) and
# empty_child_commit_leaves_state_and_generation_unchanged.
cargo test -q -p hipac --test firing_alloc
cargo test -q -p hipac --test read_alloc
cargo test -q -p hipac --test write_alloc
cargo test -q -p hipac-object --test store_tests

echo "==> crash matrix (deterministic, fixed seed, grouped replica apply, mid-fill and mid-image-write crashes included, recovery from a zero-tailed WAL), checkpoint bytes and writes per key, the image file's failure modes (damaged record, cut or damaged directory and trailer, old paged format, leftover tmp), grouped-apply chaining, pre-zeroed WAL, reads merged over the memtable against a model (checkpoints, crashes, reopens), index atomicity"
cargo test -q -p hipac-storage --test crash_matrix --test checkpoint_stream --test image_file --test wal_tail
cargo test -q -p hipac-storage --test proptests durable_store_merged_reads_match_the_model
cargo test -q -p hipac-storage --test proptests bulk_load_matches_repeated_insert
cargo test -q -p hipac-object --test index_atomicity

echo "==> serializability-checked stress suites"
cargo test -q -p hipac --test chaos --test coupling_stress

echo "==> parallel-firing differential suite (includes parallelism 2)"
cargo test -q -p hipac --test parallel_firing

echo "==> network chaos suite (fixed seed matrix 11/22/33, exactly-once torture, ack fold)"
cargo test -q -p hipac-net --lib --test resilience

echo "==> separate-mode firing recovery (deadlock retry + dead-letter)"
cargo test -q -p hipac-rules --test rule_manager_tests separate

echo "==> crash-restart torture (fixed seeds 101/202/303, durable exactly-once)"
cargo test -q -p hipac-check --test restart_torture

echo "==> replication suite (WAL shipping, grouped apply, mid-run gap, replica reads, promotion)"
cargo test -q -p hipac-repl

echo "==> failover torture (fixed seeds 101/202/303, exactly-once across promotion)"
cargo test -q -p hipac-check --test failover_torture

echo "==> split-brain torture (fixed seeds 101/202/303, epoch fence + divergence repair + 3-replica quorum)"
cargo test -q -p hipac-check --test splitbrain_torture

echo "==> ReplGap resubscribe under group commit (cohort batch boundaries)"
cargo test -q -p hipac-check --test repl_gap
cargo test -q -p hipac-storage --test wal_tail gap

echo "==> group commit differential suite (on vs off, both matching modes, crash sweep)"
cargo test -q -p hipac-check --test group_commit_diff

echo "==> group crash matrix (pre-fsync / post-fsync-pre-wake; the cohort gathers behind a plug held at GroupWake, run 5 times) + interleaving property test"
for _ in 1 2 3 4 5; do
  cargo test -q -p hipac-check --test restart_torture group_commit_crash_matrix
done
cargo test -q -p hipac-storage --test proptests group_commit_interleavings

echo "==> reactor load suite (idle horde, slow subscriber, push seq order under concurrent firings and resubscribe, unread replies paused then retired, pipelined requests across workers, a lock wait stalling no other connection, dedup across a reconnect)"
HORDE_N=2000 cargo test -q -p hipac-net --test reactor_load

echo "==> workers own connections and clients read their own replies: two workers sharing an epoll set answer every pipelined request once and in order, a backed-up connection included (run 5 times; the debug build asserts one owner at a time), the ownership rule and one-shot write arming, id-0 acks get no response, client read turns (no thread without handlers, shared callers, a late reply dropped, an on_push handler served without a request)"
for _ in 1 2 3 4 5; do
  cargo test -q -p hipac-net --test reactor_load workers_answer_each_pipelined_request_once_in_order
done
cargo test -q -p hipac-net --lib server::shard
cargo test -q -p hipac-net --test net_end_to_end fire_and_forget_requests_get_no_response
cargo test -q -p hipac-net --test client_turns

echo "==> measurement scripts parse (pair comparison, context switches per thread)"
bash -n scripts/ab.sh
bash -n scripts/ctxsw_count.sh

echo "==> multi-tenant suite (auth sessions, tenant caps, slow-subscriber eviction)"
cargo test -q -p hipac-net --test tenants

echo "==> tenant-isolation torture (fixed seeds 101/202/303, lock-driven noisy-tenant shed, eviction crash sweep)"
cargo test -q -p hipac-check --test tenant_torture

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
