# Lint and verification recipes. Everything runs offline — the external
# dependencies are vendored (see vendor/ and [patch.crates-io]).
# Each recipe is a plain cargo command, so `just` itself is optional.

# Full lint gate: formatting, clippy, rustdoc — all warnings denied —
# plus the release-mode test suite, the parallel-equivalence gate, the
# zero-allocation hot-path gate, the connection-table scale gate, the
# BENCH regression gate, the reliability soak, the adversarial overlap
# sweep, the lineage sweep, the deterministic-trace replay, and one run of
# each end-to-end benchmark workload.
lint: check test-release test-parallel test-hotpath test-scale bench-check soak soak-overlap lineage trace obs-overhead health labelbench

# Static gate only: formatting, clippy, rustdoc.
check: fmt clippy doc

# Formatting only, no changes written.
fmt:
    cargo fmt --all --check

# Clippy across the workspace, warnings as errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied (deny(missing_docs) holds on every crate).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Tier-1: what the repo must always pass (see ROADMAP.md).
test:
    cargo build --release
    cargo test -q

# Release-mode test suite (the soak assertions also run here, in seconds).
test-release:
    cargo test -q --release

# Reliability soak: the full fault matrix under two seeds, deterministic,
# release mode, well under 60 s. Rewrites BENCH_soak.json at the repo root.
soak:
    cargo run --release --bin experiments soak --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Adversarial overlap sweep: overlap policy × reassembly attack × memory
# budget, proving serial/parallel equivalence, WSC-2 integrity authority,
# and bounded memory under flood. Rewrites BENCH_overlap.json at the root.
soak-overlap:
    cargo run --release --bin experiments overlap --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Parallel-equivalence gate: the full 200-scenario differential sweep plus
# the deterministic-schedule and closure-algebra suites, release mode.
test-parallel:
    PARALLEL_SCENARIOS=200 cargo test -q --release --test parallel_differential --test parallel_schedules --test chunk_closure_props

# Regenerate the BENCH_parallel.json scaling sweep at the repo root (also
# fingerprint-checks the pipeline against the serial demux per cell).
bench-parallel:
    cargo run --release --bin experiments parallel --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Zero-allocation hot-path gate: a counting global allocator proves the
# steady-state receive windows (serial and parallel) allocate exactly
# nothing per chunk, release mode.
test-hotpath:
    cargo test -q --release --test hotpath_allocs

# Connection-table scale gate: the shrunken scale soak (16 Ki connections,
# churn, Zipf faults, both demux paths) replayed twice for determinism,
# plus the table-vs-HashMap oracle property suite, release mode.
test-scale:
    cargo test -q --release --test scale_determinism
    cargo test -q --release -p chunks-transport --test table_props

# Regenerate the BENCH_scale.json million-connection soak at the repo
# root: admit ≥ 1 Mi concurrent connections on the open-addressed table,
# soak them with templated traffic, churn, Zipf skew and a Byzantine
# fault matrix on the serial and parallel paths, and gate on delivery,
# eviction accounting, bounded memory and replay determinism.
scale:
    cargo run --release --bin experiments scale --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Regenerate the BENCH_hotpath.json receive-path sweep at the repo root:
# chunks/s, MiB/s and allocs/chunk for the zero-copy, legacy-owned and
# parallel legs (digest-compared; ≥ 96 MiB/s and 0 allocs/chunk gates).
bench-hotpath:
    cargo run --release --bin experiments hotpath --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Regenerate the BENCH_wsc.json backend × batch-width snapshot at the
# repo root (sweeps every GF(2^32) backend this CPU supports).
bench-wsc:
    CHUNKS_DESCRIBE="$(git describe --always --dirty 2>/dev/null || echo unknown)" cargo bench -p chunks-bench --bench invariant

# Run the WSC bench under both backend configurations: first with the
# portable table fallback forced via the CHUNKS_GF_BACKEND override
# (exactly what a CPU without carry-less multiply would measure), then
# the full auto-detected sweep, which writes the committed snapshot.
bench-wsc-all:
    CHUNKS_GF_BACKEND=tables CHUNKS_DESCRIBE="$(git describe --always --dirty 2>/dev/null || echo unknown)-tables-forced" cargo bench -p chunks-bench --bench invariant
    CHUNKS_DESCRIBE="$(git describe --always --dirty 2>/dev/null || echo unknown)" cargo bench -p chunks-bench --bench invariant

# Label-keyed lifecycle spans: drive one transfer through every netsim
# profile, prove the span trees byte-identical across replays, and rewrite
# BENCH_lineage.json at the repo root.
lineage:
    cargo run --release --bin experiments lineage --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# BENCH regression gate: regenerate the virtual-clock BENCH_*.json
# summaries in-process and fail on any byte of drift; wall-clock summaries
# are checked structurally (parse + meta block + nonempty results).
bench-check:
    cargo run --release --bin experiments bench-check

# Replay a soak cell twice with a recording sink, prove the two traces
# byte-identical, and print the metrics + event timeline.
trace:
    cargo run --release --bin experiments trace

# Always-on telemetry overhead gate: paired obs-off/obs-on runs of the
# serial, parallel and demux workloads, gating the serial + parallel
# on-null legs at ≤ 5% wall overhead with zero steady-state allocations
# while proving the sink actually recorded. Rewrites BENCH_obs.json.
obs-overhead:
    cargo run --release --bin experiments obs-overhead --describe "$(git describe --always --dirty 2>/dev/null || echo unknown)"

# Health surface gate: drive degradation scenarios through the watchdog,
# assert each expected verdict (LivelockSuspected, EvictionStorm,
# PressureStuck) fires, and prove the flight recorder dumps exactly once
# per connection on first degradation with byte-stable output.
health:
    cargo run --release --bin experiments health

# End-to-end benchmark smoke: one short run of each labelbench workload at
# --trace 0 (end-to-end metrics; exit ≠ 0 when a digest, replay or
# allocation-window check fails) plus the benchmark's own tests. Runs the
# benchmark as it stands; see labelbench/README.md for the metrics.
labelbench:
    cargo run --release --quiet --offline --manifest-path labelbench/Cargo.toml -- --workload bulk --seed 1 --seconds 1 --trace 0
    cargo run --release --quiet --offline --manifest-path labelbench/Cargo.toml -- --workload fanin --seed 1 --seconds 1 --trace 0
    cargo run --release --quiet --offline --manifest-path labelbench/Cargo.toml -- --workload stream --seed 1 --seconds 1 --trace 0
    cargo test --release --offline --manifest-path labelbench/Cargo.toml
