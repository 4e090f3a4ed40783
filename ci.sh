#!/usr/bin/env bash
# Repo CI: formatting, lints, tier-1 tests, smoke runs and rustdoc.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + tests =="
cargo build --release
cargo test -q

echo "== examples: every example runs to completion =="
# clippy only compiles the examples; this runs each one, so the daemons
# they start and drive through userland::workload are exercised too.
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" > /dev/null
done

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
# (interner + dcache + path arenas end to end), also after an unrelated
# mount and rename (the dcache hit checks its directory generations and
# stays a hit), that a warm open through a relative path or a symlink
# allocates nothing (the dcache entry carries the canonical path the
# open hands the LSM), that a warm resolve of a directory right after a create
# and a rename inside it stays a hit and allocates nothing (those change
# the directory's entries generation, not its coverage), that a warm
# Protego hook matching a policy rule allocates nothing either, and that
# a warm stock setuid denial (typed audit event into a full ring)
# allocates nothing, and that a whole warm web request
# (workload::web_request: 13 kernel entries through the borrowed
# syscall ABI, read/recv filling reusable buffers) allocates nothing on
# either image. The same counting allocator holds a steady-state mail
# delivery, whose spool the previous delivery's rename replaced, to at
# most 1 allocation (the staging file's contents: the spool's path stays
# a dcache hit), the first 4 deliveries after a spool drain to at most 4
# each, and a warm
# privileged run to a budget: one 8-operation privops cycle (mount,
# umount, ping, three sudo runs, su, newgrp) makes at most 21
# allocations per operation on Protego and 54 on legacy (165 and 428
# measured). The auth gate holds a warm kernel authentication (user or
# group, fragment or legacy shadow file) to zero allocations, also after
# 100 accounts are added to /etc/passwd (the agent checks the attempt
# inside the files it reads), and the fork gate holds a warm fork + exit
# + wait of a session's child to zero (the environment and the group list
# are shared copy-on-write). All live in one root integration test, so
# tier-1 runs them too; this step names them so a failure here points at
# the gate.
cargo test -q --release --test alloc_gates

echo "== dcache: cached and uncached resolution agree =="
# The dcache oracle runs whole mail/web/privops scripts on both images
# with the dcache on and off and compares every output, and checks that
# an opened descriptor's path is Vfs::path_of of its inode after every
# namespace change and every replacement of a name (rename over it,
# unlink and recreate, a directory, a symlink), however it is spelled.
# The kernel's dcache tests check that each mutation invalidates exactly
# what it changed: a replaced file name is served by redoing its last
# lookup with the same canonical path, never across a change to an
# ancestor or an earlier read of its directory, and concurrent renamers
# never make a walk, a name or an open serve a stale or freed inode. Tier-1 runs the oracle too; this step
# names both so a cache fault shows up here.
cargo test -q --release --test dcache_oracle
cargo test -q --release -p sim-kernel --test dcache

echo "== tables: an unknown table or subcommand name is an error =="
if cargo run --release -q -p bench --bin tables -- nosuchtable 2>/dev/null; then echo "error: tables nosuchtable exited 0" >&2; exit 1; fi

echo "== golden: Table 6 and Table 7 match their committed outputs =="
# Both tables are deterministic (fixed corpora, logical clock, no
# timing). Table 6's per-hook allow/deny/use_default/defer/info counts
# fingerprint the LSM decision path; Table 7 fingerprints the service
# drivers. Regenerate a file only for an intended change of behaviour,
# and say why in CHANGES.md.
for table in table6 table7; do
    cargo run --release -q -p bench --bin tables -- "$table" > "target/$table.txt"
    cmp "target/$table.txt" "tests/expected/$table.txt" \
        || { echo "error: tables $table differs from tests/expected/$table.txt" >&2; exit 1; }
done

echo "== smoke bench: BENCH_table5.json regenerates and validates =="
# Low-iteration run of the Table 5 micro/macro/hot-path rows, every one
# timed by the paired interleaved median-of-K estimator. bench-json
# writes the document first, then judges it and lists every failing row
# (a hot-path speedup below 2x, a cache with zero hits, a short sample
# array, ...), exiting non-zero if there is one. bench-verify decodes the
# committed full document (it fails on a missing file and on any schema
# but bench_table5/v2) and judges it the same way, with the per-row
# <=10% micro and <1% seccomp overhead budgets enforced on full runs.
cargo run --release -p bench --bin tables -- bench-json --quick --out target/BENCH_table5.smoke.json
cargo run --release -p bench --bin tables -- bench-verify target/BENCH_table5.smoke.json
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

echo "== size: Rust lines under crates/ (information, not a gate) =="
# The net-lines figure every change reports against its parent.
find crates -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l

echo "CI OK"
