#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 test suite, and a perf
# smoke run. Everything here must pass before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1 tests (release build + root test suite)"
cargo build --release
cargo test -q

echo "==> member crates' tests in a debug build (debug_assert!s and overflow checks on)"
cargo test -q --workspace --exclude dftmsn

echo "==> full workspace tests"
cargo test --workspace --release -q

echo "==> examples (each must run to completion)"
for ex in quickstart protocol_trace optimizer_explorer xi_landscape flu_tracking; do
    cargo run --release -q --example "$ex" >/dev/null \
        || { echo "example $ex failed"; exit 1; }
done

echo "==> event-queue oracle at depth (timing wheel vs. binary heap, 16384 cases)"
PROPTEST_CASES=16384 cargo test --release -q -p dftmsn-sim --test properties

echo "==> Eq. 12/13/14 decisions vs reference at depth (bit-exact γ, τ_max and windows, 16384 cases)"
PROPTEST_CASES=16384 cargo test --release -q --test protocol_invariants -- \
    rts_collision_is_probability tau_optimizer_minimal_and_feasible near_ties_match_the_reference \
    cts_window_math_is_sound
# The certified Eq. 13 test against the kernel, its near-tie fallback, and
# the run's lazily filled Eq. 14 table, fresh and after a resume.
cargo test --release -q -p dftmsn-core --lib -- \
    certified_decisions_are_the_kernels exact_ties_defer_to_the_kernel \
    eq14_table_matches_the_window_search_fresh_and_resumed

echo "==> golden determinism baseline (empty fault plan must change nothing)"
cargo test --release -q --test determinism_baseline

echo "==> fault-injection smoke (crashes + link drops must register)"
fault_json=$(cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --fault-plan "crash=0.3;linkdrop=0.2" --json)
echo "$fault_json" | grep -q '"crashes":[1-9]' \
    || { echo "fault smoke: no crashes counted"; exit 1; }
echo "$fault_json" | grep -q '"frames_dropped":[1-9]' \
    || { echo "fault smoke: no frames dropped"; exit 1; }

echo "==> observe smoke (run --observe JSONL + inspect round trip)"
obs_file=target/ci_observe.jsonl
cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --observe "$obs_file" --window 100 >/dev/null
grep -q '"schema":"dftmsn-observe/1"' "$obs_file" \
    || { echo "observe smoke: missing schema header"; exit 1; }
grep -q '"totals":true' "$obs_file" \
    || { echo "observe smoke: missing totals line"; exit 1; }
inspect_out=$(cargo run --release -q -p dftmsn-cli -- inspect "$obs_file")
echo "$inspect_out" | grep -q 'deliveries' \
    || { echo "observe smoke: inspect failed to summarize"; exit 1; }
# A line nested far past the parser's depth cap is skipped with a warning,
# never a stack overflow: inspect must still exit 0 and render the windows.
head -c 200000 /dev/zero | tr '\0' '[' >>"$obs_file"
echo >>"$obs_file"
inspect_out=$(cargo run --release -q -p dftmsn-cli -- inspect "$obs_file" 2>target/ci_observe.err) \
    || { echo "observe smoke: inspect failed on a deeply nested line"; exit 1; }
grep -q 'skipping unparseable line' target/ci_observe.err \
    || { echo "observe smoke: deeply nested line not reported as skipped"; exit 1; }
echo "$inspect_out" | grep -q 'deliveries' \
    || { echo "observe smoke: inspect lost the intact windows"; exit 1; }

echo "==> checkpoint/resume determinism gate (resumed run must be bit-identical)"
cargo test --release -q --test checkpoint_resume
ck=target/ci_ckpt.ckpt
rm -f "$ck" "$ck.bak" target/ci_ckpt_full.jsonl target/ci_ckpt_part.jsonl
full_json=$(cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --observe target/ci_ckpt_full.jsonl --window 100 --json)
cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --observe target/ci_ckpt_part.jsonl --window 100 \
    --checkpoint "$ck" --checkpoint-every 900 >/dev/null
resumed_json=$(cargo run --release -q -p dftmsn-cli -- run --resume "$ck" \
    --observe target/ci_ckpt_part.jsonl --window 100 --json)
cmp -s target/ci_ckpt_full.jsonl target/ci_ckpt_part.jsonl \
    || { echo "checkpoint gate: resumed observe stream is not byte-identical"; exit 1; }
[ "$full_json" = "$resumed_json" ] \
    || { echo "checkpoint gate: resumed report differs from the uninterrupted run"; exit 1; }

echo "==> corrupt-checkpoint rejection smoke (must refuse with exit code 4)"
cp "$ck" target/ci_ckpt_bad.ckpt
rm -f target/ci_ckpt_bad.ckpt.bak
printf 'X' | dd of=target/ci_ckpt_bad.ckpt bs=1 seek=100 conv=notrunc status=none
set +e
cargo run --release -q -p dftmsn-cli -- run --resume target/ci_ckpt_bad.ckpt \
    >/dev/null 2>target/ci_ckpt_bad.err
bad_rc=$?
set -e
[ "$bad_rc" -eq 4 ] \
    || { echo "corrupt checkpoint gate: expected exit 4, got $bad_rc"; exit 1; }
grep -qi 'checksum\|corrupt' target/ci_ckpt_bad.err \
    || { echo "corrupt checkpoint gate: no diagnostic on stderr"; exit 1; }
# A file of another format version is refused by name, also with exit 4.
cp "$ck" target/ci_ckpt_old.ckpt
rm -f target/ci_ckpt_old.ckpt.bak
printf 'dftmsn-ckpt/5' | dd of=target/ci_ckpt_old.ckpt bs=1 seek=0 conv=notrunc status=none
set +e
cargo run --release -q -p dftmsn-cli -- run --resume target/ci_ckpt_old.ckpt \
    >/dev/null 2>target/ci_ckpt_old.err
old_rc=$?
set -e
[ "$old_rc" -eq 4 ] \
    || { echo "old-version checkpoint gate: expected exit 4, got $old_rc"; exit 1; }
grep -q 'unsupported checkpoint version dftmsn-ckpt/5' target/ci_ckpt_old.err \
    || { echo "old-version checkpoint gate: version not named on stderr"; exit 1; }

echo "==> benchmark package tests (unit + --quick smoke)"
cargo test --release --manifest-path benchmark/Cargo.toml

echo "==> policy-parity gate (builtin variants seed-deterministic; competitor-policy goldens)"
cargo test --release -q --test policy_parity
cargo run --release -q -p dftmsn-cli -- run --policy twohop:budget=3 \
    --sensors 10 --sinks 2 --duration 300 --json >/dev/null \
    || { echo "policy smoke: run --policy failed"; exit 1; }

echo "==> adversary-parity gate (all-honest runs bit-identical; adversarial runs seed-deterministic)"
# Quiet-run bit-identity across the 12 lazy goldens (the 12 ticked ones ran
# in the golden determinism stage above; behavior machinery compiled in but
# dormant) plus the stacked behavior+fault and lifetime suites.
cargo test --release -q --test lazy_mobility_baseline
cargo test --release -q --test behavior
# Seeded 25%-selfish determinism smoke: two identical invocations must
# produce byte-equal JSON reports.
adv_a=$(cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --behaviors "selfish=0.25" --json)
adv_b=$(cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --behaviors "selfish=0.25" --json)
[ "$adv_a" = "$adv_b" ] \
    || { echo "adversary gate: selfish run is not seed-deterministic"; exit 1; }
echo "$adv_a" | grep -q '"behavior_changes":[1-9]' \
    || { echo "adversary gate: no behavior changes counted"; exit 1; }
cargo run --release -q -p dftmsn-cli -- run --behaviors "liar=0.1;blackhole=0.1@500" \
    --sensors 10 --sinks 2 --duration 300 --json >/dev/null \
    || { echo "adversary smoke: run --behaviors failed"; exit 1; }

echo "==> public-API surface gate (drift must be declared in API_SURFACE.txt)"
cargo run --release -q -p dftmsn-bench --bin api_surface -- --check

echo "==> unsafe stays confined (the CLI's signal install and the core prefetch helper)"
# Count the `unsafe` keyword per file outside char/string literals and
# line comments; only the two known sites may carry one.
unsafe_sites=$(find crates src shims benchmark -name target -prune -o -name '*.rs' -print \
    | LC_ALL=C sort | while read -r f; do
        n=$(sed -E -e "s/'(\\\\.|[^\\\\'])'//g" -e 's/"([^"\\]|\\.)*"//g' -e 's://.*$::' "$f" \
            | grep -cw unsafe || true)
        [ "$n" -eq 0 ] || echo "$f:$n"
    done)
unsafe_allowed="crates/cli/src/main.rs:1
crates/core/src/prefetch.rs:1"
[ "$unsafe_sites" = "$unsafe_allowed" ] \
    || { printf 'unsafe gate: expected only\n%s\nfound\n%s\n' "$unsafe_allowed" "$unsafe_sites"; exit 1; }
# Every other crate root forbids unsafe code outright.
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs crates/*/src/bin/*.rs \
    shims/*/src/lib.rs benchmark/src/main.rs; do
    case "$root" in crates/core/* | crates/cli/*) continue ;; esac
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" \
        || { echo "unsafe gate: $root lacks #![forbid(unsafe_code)]"; exit 1; }
done

echo "==> docs build cleanly (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> perf baseline smoke (--quick --scale)"
cargo run --release -p dftmsn-bench --bin perf_baseline -- --quick --scale \
    --out target/BENCH_engine.quick.json

echo "==> scale-tier regression gate (failing; >25% ns/event over committed BENCH_engine.json)"
# Escape hatch for hardware that legitimately differs from the machine
# behind the committed baseline: SCALE_CHECK_WARN_ONLY=1 ./ci.sh
cargo run --release -p dftmsn-bench --bin scale_check -- \
    ${SCALE_CHECK_WARN_ONLY:+--warn-only}

echo "CI OK"
