#!/usr/bin/env sh
# Offline CI gate for the hermetic workspace: formatting, lints, then the
# tier-1 build-and-test pass. Everything runs with --offline — the
# workspace has zero external dependencies, so no registry access is
# needed (or allowed).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings -D deprecated"
# -D deprecated is pinned explicitly: the workspace carries no
# #[deprecated] shims (PR 7 removed the last ones) and none may creep
# back in silently.
cargo clippy --offline --workspace --all-targets -- -D warnings -D deprecated

echo "==> cargo doc with warnings denied"
# Doc links are checked like code: a link to a renamed or deleted item
# fails the gate instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> golden networks of the repair search, in release"
# Debug builds check every move and reroute probe against an
# apply-and-undo oracle, which interns pipes in another order and bumps
# memo generations, so the debug run above does not execute the code the
# release binaries and the benchmark run. The goldens must hold there too.
cargo test --release --offline --test golden_exactness

echo "==> nocbench builds and its tests pass against the workspace crates"
# The repo benchmark is a separate package that builds the workspace
# crates from source; a renamed public item must fail here, not at
# benchmark time.
cargo test --release --offline --manifest-path nocbench/Cargo.toml

echo "==> no-unwrap gate: clippy -D clippy::unwrap_used on faults + engine + model + fuzz + coloring + bench + synth + topo + serve + certify"
cargo clippy --offline -p nocsyn-faults -p nocsyn-engine -p nocsyn-model -p nocsyn-fuzz \
    -p nocsyn-coloring -p nocsyn-bench -p nocsyn-synth -p nocsyn-topo -p nocsyn-serve \
    -p nocsyn-certify -- \
    -D warnings -D clippy::unwrap_used

echo "==> engine smoke gate: synth --jobs 1 vs --jobs 4 must be bit-identical"
j1="$(mktemp)"
j4="$(mktemp)"
trap 'rm -f "$j1" "$j4"' EXIT
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 8 --dot --jobs 1 > "$j1"
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 8 --dot --jobs 4 > "$j4"
diff "$j1" "$j4"

echo "==> fault-determinism gate: degradation reports --jobs 1 vs --jobs 4"
./target/release/nocsyn faults examples_data/pipeline.txt --exhaustive --json --jobs 1 > "$j1"
./target/release/nocsyn faults examples_data/pipeline.txt --exhaustive --json --jobs 4 > "$j4"
diff "$j1" "$j4"

echo "==> fuzz smoke gate: 2000 cases/target, clean and byte-identical across runs"
./target/release/nocsyn fuzz --target all --iters 2000 --seed 1 --json > "$j1"
./target/release/nocsyn fuzz --target all --iters 2000 --seed 1 --json > "$j4"
diff "$j1" "$j4"
grep -q '"unique_crashes":0,"unique_budget_violations":0' "$j1"

echo "==> bench smoke gate: perf --iters 1 counters byte-identical across runs"
# The perf harness must separate measurement (stderr) from counters
# (stdout): two runs of the same seed produce byte-identical JSON.
cargo build --release --offline -p nocsyn-bench
./target/release/perf --iters 1 --seed 1 --json > "$j1" 2> /dev/null
./target/release/perf --iters 1 --seed 1 --json > "$j4" 2> /dev/null
diff "$j1" "$j4"
# The score-neutral reroute counter must stay in the pinned artifact:
# it is what distinguishes "no improvement found" from "never tried".
grep -q '"reroutes_neutral":' "$j1"

echo "==> BENCH_6 gate: perf --iters 3 counters match the checked-in artifact"
# Same contract as the smoke gate at the recorded iteration count: two
# fresh runs must be byte-identical to each other AND to BENCH_6.json,
# so the checked-in speedup record can never drift from the code.
./target/release/perf --iters 3 --seed 1 --json > "$j1" 2> /dev/null
./target/release/perf --iters 3 --seed 1 --json > "$j4" 2> /dev/null
diff "$j1" "$j4"
diff "$j1" BENCH_6.json

echo "==> certify gate: synth --emit-cert round-trips through the independent checker"
# Two golden workloads: the bundled pipeline example and an MG8-shaped
# schedule. Each synthesis emits a proof, `nocsyn certify` accepts it,
# a tampered copy is rejected with its stable fingerprint, and same-seed
# re-emission is byte-identical.
cert1="$(mktemp)"
cert2="$(mktemp)"
pat2="$(mktemp)"
trap 'rm -f "$j1" "$j4" "$cert1" "$cert2" "$pat2"' EXIT
printf 'procs 8\nphase bytes=256\n  0 -> 1\n  2 -> 3\n  4 -> 5\n  6 -> 7\nphase bytes=256\n  1 -> 2\n  3 -> 4\n  5 -> 6\n  7 -> 0\n' > "$pat2"
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 2 --seed 9 --emit-cert "$cert1" > /dev/null
./target/release/nocsyn certify examples_data/pipeline.txt "$cert1" --json | grep -q '"valid":true'
./target/release/nocsyn synth "$pat2" --restarts 2 --seed 9 --emit-cert "$cert2" > /dev/null
./target/release/nocsyn certify "$pat2" "$cert2" --json | grep -q '"valid":true'
# Same seed, fresh emission: certificates are byte-deterministic.
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 2 --seed 9 --emit-cert "$j1" > /dev/null
diff "$j1" "$cert1"
# Tampering must be caught (non-zero exit, stable fingerprint on stderr).
sed 's/"contention_free":true/"contention_free":false/' "$cert1" > "$j4"
if ./target/release/nocsyn certify examples_data/pipeline.txt "$j4" > /dev/null 2> "$j1"; then
    echo "tampered certificate was accepted" >&2
    exit 1
fi
grep -q 'cert-binding-mismatch' "$j1"

echo "==> serve cache gate: same job twice -> miss then byte-identical hit"
# The daemon in --drain mode is fully scriptable: two copies of the same
# request must come back as a miss then a hit, identical except for the
# cache marker, and the embedded report must be byte-identical to a
# direct `nocsyn synth --json` run of the same job.
req='{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n  2 -> 3\n"}'
printf '%s\n%s\n' "$req" "$req" | ./target/release/nocsyn serve --drain > "$j1"
test "$(wc -l < "$j1")" -eq 2
head -n 1 "$j1" | grep -q '"cache":"miss"'
tail -n 1 "$j1" | grep -q '"cache":"hit"'
head -n 1 "$j1" | sed 's/"cache":"miss"/"cache":"hit"/' > "$j4"
tail -n 1 "$j1" | diff "$j4" -
pat="$(mktemp)"
printf 'procs 4\nphase\n  0 -> 1\n  2 -> 3\n' > "$pat"
direct="$(./target/release/nocsyn synth "$pat" --json)"
rm -f "$pat"
grep -qF "\"report\":${direct}}" "$j1"

echo "==> chaos gate: seeded fault schedule, zero violations, byte-identical across runs"
# Deterministic chaos harness over the in-process serve stack: injected
# disk/socket/engine faults must never tear a served entry or produce a
# malformed reply, the cache must heal byte-identically once faults
# stop, and the summary itself is a pure function of the seed.
# (Injected engine panics print backtraces on stderr by design.)
./target/release/nocsyn chaos --seed 1 --iters 500 --json > "$j1" 2> /dev/null
./target/release/nocsyn chaos --seed 1 --iters 500 --json > "$j4" 2> /dev/null
diff "$j1" "$j4"
grep -q '"violations":0' "$j1"

echo "==> BENCH_7 gate: serve cache counters match the checked-in artifact"
# Cold-miss / warm-hit facts of the result cache on the CG16/MG8/FFT16
# mix: deterministic, so two runs must match each other and the artifact.
./target/release/serve --seed 1 --json > "$j1" 2> /dev/null
./target/release/serve --seed 1 --json > "$j4" 2> /dev/null
diff "$j1" "$j4"
diff "$j1" BENCH_7.json

echo "==> decomposition determinism gate: synth --decompose --pareto bytes stable across runs"
# Clustered synthesis plus the Pareto sweep is a pure function of the
# seed: two runs of the checked-in 64-node pattern must be
# byte-identical, declare the decomposed mode, and carry the front.
./target/release/nocsyn synth examples_data/clus64.txt --decompose --clusters 4 --restarts 1 --seed 1 --json --pareto > "$j1"
./target/release/nocsyn synth examples_data/clus64.txt --decompose --clusters 4 --restarts 1 --seed 1 --json --pareto > "$j4"
diff "$j1" "$j4"
grep -q '"mode":"decomposed"' "$j1"
grep -q '"pareto":\[' "$j1"

echo "==> decomposed certify gate: stitched result round-trips through the independent checker"
# The certificate of a decomposed synthesis uses the same schema as a
# flat one; the checker must accept it with no knowledge of clustering.
./target/release/nocsyn synth examples_data/clus64.txt --decompose --restarts 2 --seed 65 --emit-cert "$cert1" > /dev/null
./target/release/nocsyn certify examples_data/clus64.txt "$cert1" --json | grep -q '"valid":true'

echo "==> BENCH_8 gate: decomposition counters match the checked-in artifact"
# Flat-vs-decomposed separation under one round budget: the harness
# itself asserts every decomposed run is certified and flat synthesis
# fails from 128 nodes up; two runs must match each other and the
# artifact byte for byte.
./target/release/decompose --seed 1 --json > "$j1" 2> /dev/null
./target/release/decompose --seed 1 --json > "$j4" 2> /dev/null
diff "$j1" "$j4"
diff "$j1" BENCH_8.json

echo "CI gate passed."
