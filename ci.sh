#!/usr/bin/env bash
# Repo CI: formatting, lints, tier-1 tests, and audit-subsystem guards.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + tests =="
cargo build --release
cargo test -q

echo "== full workspace tests =="
cargo test --workspace --release -q

echo "== e2e-bench: the end-to-end benchmark's own tests =="
# e2e-bench is a standalone package (its own workspace and Cargo.lock)
# built against the kernel and userland crates by path, so a kernel API
# change can break it without touching the root workspace.
cargo test --release --offline --manifest-path e2e-bench/Cargo.toml

echo "== zero-alloc gate: steady-state fast path allocates nothing =="
# Counting-allocator proof that a warm resolve/open/read/close/getuid
# cycle under the full Protego LSM performs zero heap allocations
# (interner + dcache + path arenas end to end), and that a warm Protego
# hook matching a policy rule allocates nothing either.
cargo test -q -p protego-core --features alloc-count --test fastpath_alloc

echo "== smoke bench: BENCH_table5.json regenerates and validates =="
# Low-iteration run of the Table 5 micro/macro/hot-path rows, every one
# timed by the paired interleaved median-of-K estimator; fails if the document
# is missing, malformed, the hot-path speedups regress below 2x, or the
# caches report zero hits. The committed full document must carry the
# bench_table5/v2 schema (paired micro samples embedded) and pass the
# per-row <=10% micro overhead budget that bench-verify enforces on
# full runs.
cargo run --release -p bench --bin tables -- bench-json --quick --out target/BENCH_table5.smoke.json
cargo run --release -p bench --bin tables -- bench-verify target/BENCH_table5.smoke.json
test -s BENCH_table5.json || { echo "error: committed BENCH_table5.json missing" >&2; exit 1; }
grep -q '"schema": *"bench_table5/v2"' BENCH_table5.json \
    || { echo "error: committed BENCH_table5.json is not schema bench_table5/v2" >&2; exit 1; }
cargo run --release -p bench --bin tables -- bench-verify BENCH_table5.json

echo "== smoke seccomp: committed profiles are fresh and enforce cleanly =="
# Re-derives the per-binary allowlists from the battery + the
# userland web/mail workloads and the compile stand-in (derivation is
# deterministic: fixed op counts) and fails if the
# committed SECCOMP_PROFILES.json differs byte-for-byte; --smoke then
# re-runs the Protego functional battery under enforcement and fails on
# any step-outcome change or violation. bench-verify re-checks the
# committed document against the seccomp_profiles/v1 schema and the
# <50% average-reachability ceiling.
cargo run --release -p bench --bin tables -- seccomp-derive --smoke --check
cargo run --release -p bench --bin tables -- bench-verify SECCOMP_PROFILES.json

echo "== smoke replay: recorded syscall trace replays deterministically =="
# Records the full functional battery through the dispatch boundary and
# replays a fresh boot against it; fails on any divergence.
cargo run --release -p bench --bin tables -- replay-smoke

echo "== smoke fuzz: adversarial differential scenarios =="
# Fixed-seed tier of the scenario fuzzer (5 families x 32 seeds): every
# scenario runs under legacy and Protego with the equivalence /
# determinism / security oracles armed, and the campaign self-checks
# that generation is a pure function of the seed. The double run then
# proves the whole pipeline — generation, execution, reporting — is
# byte-identical per seed.
cargo run --release -p bench --bin tables -- fuzz --smoke | tee target/fuzz.smoke.1.txt
cargo run --release -p bench --bin tables -- fuzz --smoke > target/fuzz.smoke.2.txt
cmp target/fuzz.smoke.1.txt target/fuzz.smoke.2.txt \
    || { echo "error: fuzz smoke output is not deterministic across runs" >&2; exit 1; }

echo "== docs: sim-kernel + bench rustdoc is warning-clean =="
RUSTDOCFLAGS="-D warnings" cargo doc -p sim-kernel -p bench --no-deps --quiet

echo "== guard: no string-formatted audit calls =="
# The legacy unbounded string log is gone; decisions must go through the
# typed emit_* API so provenance and metrics stay complete.
if grep -rn "audit_event(format!" --include='*.rs' crates src examples benches 2>/dev/null; then
    echo "error: string audit_event(format!(..)) call sites found; use emit_lsm_event/emit_kernel_event" >&2
    exit 1
fi

echo "CI OK"
