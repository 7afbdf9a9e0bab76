# Tier-1 verification in one command: build every target (libraries,
# executables, tests, benches) and run the full test suite.
.PHONY: check build test loopback nemesis certify-check query-plane race-smoke bench bench-smoke bench-check perfbench-smoke clean

check: build test

build:
	dune build @all

test:
	dune runtest

# Just the real-TCP integration tests: the transport unit suite and the
# 3-replica loopback chain with a mid-run replica kill.
loopback: build
	dune exec test/test_main.exe -- test transport
	dune exec test/test_main.exe -- test loopback

# Nemesis gate (DESIGN.md §16): the real-TCP fault schedule — partitions
# through drop proxies, clean kills with planted full snapshots,
# machine crashes over a lying/torn disk — under the WAL-bytes snapshot
# schedule.  KRONOS_NEMESIS_ITERS scales the schedule (default 3; CI's PR
# lane uses 2, the nightly lane 12).
nemesis: build
	dune exec test/test_main.exe -- test '^nemesis'

# Verifiable-causality gate (DESIGN.md §13): the SHA-256 portable/accelerated
# agreement suite (NIST vectors and compress_pair known answers on both
# paths, a QCheck agreement property, the sha_ni-host selection check),
# commitment chains, prover/verifier roundtrips, the tamper-injection suite (flipped digest,
# truncated path, spliced proof, reordered suffix — all rejected),
# digest-toggle snapshot restores, verified reads over simnet and real TCP, and
# audit pinning against a history rewrite.
certify-check: build
	dune exec test/test_main.exe -- test certify

# Multicore query plane (DESIGN.md §14): frozen-view differential suites
# and the real-TCP chain with 4 reader domains per node under a mid-run
# kill/restart — the `kronosd --query-domains 4` configuration.
query-plane: build
	dune exec test/test_main.exe -- test view
	dune exec test/test_main.exe -- test query_plane

# Publish/read race hammer: one writer domain mutating and publishing as
# fast as it can while reader domains chase the latest view.  A small
# minor heap (s=4k) forces frequent minor collections, so unpublished
# mutable state leaking into a frozen view would be caught as a torn
# read rather than hidden by generous heap slack.
race-smoke: build
	OCAMLRUNPARAM="s=4k" dune exec test/test_main.exe -- test view_race

bench:
	dune exec bench/main.exe

# Quick performance snapshot: writes BENCH_smoke.json in the repo root
# (CI runs this and uploads the file as an artifact).
bench-smoke: build
	dune exec bench/main.exe -- smoke

# Regression gate: re-measure the smoke series and compare them with the
# committed BENCH_smoke.json.  It fails when an engine.*,
# client.order_cache_* or certify.* ns/op (or ns/edge) series, the
# engine.assign_batch_wide_promoted words/edge count, or the
# engine.commitment_bytes_per_link B/link figure, is more than 2.5x
# worse than its committed value; when an exact count — the
# engine.bfs_visited_wide and engine.bfs_visited_reversed_must slot
# counts (query searches and stage-time cycle checks), or the
# engine.digest_folds_per_edge SHA-256 compressions per committed edge —
# is more than 1.1x above its; when
# certify.assign_overhead_pct exceeds its 250 pct budget; when, on hosts
# with 4+ domains, engine.query_parallel_speedup falls to 2x or below;
# or when durability.recovery_ms exceeds its 2000 ms budget.  Every gated engine.*
# and certify.* ns/op series but certify.assign_digests_* is the best of
# five fixed-length windows after a Gc.compact, not a Bechamel estimate.
# The replicated service end to end is measured by perfbench/, not here.
bench-check: build
	dune exec bench/main.exe -- smoke-check

# Service benchmark correctness smoke: a short run of each perfbench
# workload over the durable 3-replica TCP chain.  A failed output check
# (replica agreement, re-queried acknowledged orders, oracle answers,
# recovery) exits non-zero and fails the target; the figures are not gated.
perfbench-smoke:
	python3 perfbench/run.py --workload write_chain --seed 1 --seconds 6 --trace 0
	python3 perfbench/run.py --workload read_wide --seed 1 --seconds 6 --trace 0
	python3 perfbench/run.py --workload mixed_rw --seed 1 --seconds 6 --trace 0

clean:
	dune clean
