#!/bin/sh
# Repo CI: build, run the test suite, check formatting where an
# .ocamlformat-governed formatter is available, and smoke-test the
# observability pipeline end to end (run a workload, emit
# BENCH_smoke.json, validate it with the in-repo JSON parser). Each
# bench gates its own floors and exits 1 when one fails.
set -eu

cd "$(dirname "$0")/.."

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

check_report() {
  dune exec bin/minuet_bench.exe -- check-report "$smoke_dir/BENCH_$1.json"
}

# The scan and traffic benches are pure functions of their seeds: the
# fresh report must also equal the committed one outside wall_ms, or
# the committed file has gone stale; on failure both are printed.
check_pinned() {
  dune exec bin/minuet_bench.exe -- check-report --pinned "BENCH_$1.json" \
    "$smoke_dir/BENCH_$1.json" || {
    diff "BENCH_$1.json" "$smoke_dir/BENCH_$1.json" || true
    return 1
  }
}

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

echo "== unused exports =="
# Every [val] a lib/**/*.mli declares must be used by some .ml file
# other than its own implementation: an export nothing uses is surface
# that tests, lint and benches must cover for nothing. A use is code
# (comments and string literals do not count) that names the value
#   - qualified, as M.name through any module path, where M is the
#     declaring module (the .mli's own or a [module M : sig] inside it)
#     or a module that includes it (Sim includes Scheduler);
#   - through a file-local alias [module X = ...M], as X.name;
#   - unqualified, in a file that opens or includes M.
# A bare word match would let a local binding of the same name (a
# [pp_result] in one file) keep a dead export alive in another. The .mli
# files are read once, then every .ml file twice: pass 1 collects
# top-level [include]s, pass 2 marks the uses.
unused_exports() {
  mls="$(find lib bin bench benchmark examples test -name '*.ml' | LC_ALL=C sort)"
  awk '
      function modname(path,   m) {
        m = path; sub(/^.*\//, "", m); sub(/\.mli?$/, "", m)
        return toupper(substr(m, 1, 1)) substr(m, 2)
      }
      function last(path,   k, parts) { k = split(path, parts, "."); return parts[k] }
      # The current file uses [n] through module [m], and so through
      # every module [m] includes.
      function use(m, n,   i) {
        used[m, n, FILENAME] = 1
        for (i = 1; i <= nincl[m]; i++) use(incl[m, i], n)
      }
      # [s] with comments and string literals blanked out; a comment or
      # string left open carries over to the next line.
      function strip(s,   out, tok) {
        gsub(/[\047]\\?"[\047]/, "_", s)
        out = ""
        while (s != "") {
          if (incomment) {
            if (match(s, /[(][*]|[*][)]/)) {
              tok = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
              incomment += (tok == "(*") ? 1 : -1
            } else s = ""
          } else if (instring) {
            if (match(s, /^([^"\\]|\\.)*"/)) { s = substr(s, RLENGTH + 1); instring = 0; out = out " " }
            else s = ""
          } else if (inquoted) {
            if (match(s, /[|][}]/)) { s = substr(s, RSTART + 2); inquoted = 0; out = out " " }
            else s = ""
          } else if (match(s, /[(][*]|"|[{][|]/)) {
            tok = substr(s, RSTART, RLENGTH)
            out = out substr(s, 1, RSTART - 1); s = substr(s, RSTART + RLENGTH)
            if (tok == "(*") incomment = 1; else if (tok == "\"") instring = 1; else inquoted = 1
          } else { out = out s; s = "" }
        }
        return out
      }
      FILENAME ~ /\.mli$/ {
        if (FNR == 1) { depth = 0; scope[0] = modname(FILENAME) }
        if (match($0, /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*sig/)) {
          m = substr($0, RSTART, RLENGTH)
          sub(/^[ \t]*module[ \t]+/, "", m); sub(/[ \t]*:.*$/, "", m)
          if ($0 !~ /end[ \t]*$/) scope[++depth] = m
        } else if ($0 ~ /^[ \t]*end([ \t]|$)/ && depth > 0) depth--
        if (match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'"'"']*/)) {
          name = substr($0, RSTART, RLENGTH)
          sub(/^[ \t]*val[ \t]+/, "", name)
          impl = FILENAME; sub(/\.mli$/, ".ml", impl)
          n++; decl_file[n] = FILENAME; decl_line[n] = FNR; decl_name[n] = name
          decl_mod[n] = scope[depth]; decl_impl[n] = impl; declared[name] = 1
        }
        next
      }
      pass == 1 {
        if (match($0, /^include[ \t]+[A-Z][A-Za-z0-9_.]*/)) {
          m = modname(FILENAME); nincl[m]++
          incl[m, nincl[m]] = last(substr($0, RSTART + 8, RLENGTH - 8))
        }
        next
      }
      FNR == 1 {
        nfiles++; files[nfiles] = FILENAME; split("", alias); split("", opened)
        incomment = 0; instring = 0; inquoted = 0
      }
      {
        line = strip($0)
        if (match(line, /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*[ \t]*$/)) {
          x = line; sub(/^[ \t]*module[ \t]+/, "", x); sub(/[ \t]*=.*$/, "", x)
          rhs = line; sub(/^[^=]*=[ \t]*/, "", rhs); sub(/[ \t]*$/, "", rhs)
          alias[x] = last(rhs)
        }
        rest = line
        while (match(rest, /(open!?|include)[ \t]+[A-Z][A-Za-z0-9_.]*|[A-Z][A-Za-z0-9_.]*\.\(/)) {
          o = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
          sub(/^(open!?|include)[ \t]+/, "", o); sub(/\.\($/, "", o)
          o = last(o); opened[o] = 1
          if (o in alias) opened[alias[o]] = 1
        }
        rest = line
        while (match(rest, /[A-Z][A-Za-z0-9_'"'"']*(\.[A-Z][A-Za-z0-9_'"'"']*)*\.[a-z_][A-Za-z0-9_'"'"']*/)) {
          q = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
          k = split(q, parts, "."); name = parts[k]; m = parts[k - 1]
          if (name in declared) { use(m, name); if (m in alias) use(alias[m], name) }
        }
        gsub(/[A-Z][A-Za-z0-9_'"'"']*(\.[A-Z][A-Za-z0-9_'"'"']*)*\.[a-z_][A-Za-z0-9_'"'"']*/, " ", line)
        gsub(/\.[a-z_][A-Za-z0-9_'"'"']*/, " ", line)
        gsub(/[^A-Za-z0-9_'"'"']+/, " ", line)
        k = split(line, words, " ")
        for (i = 1; i <= k; i++)
          if (words[i] in declared)
            for (o in opened) use(o, words[i])
      }
      END {
        for (d = 1; d <= n; d++) {
          ok = 0
          for (f = 1; f <= nfiles && !ok; f++)
            if (files[f] != decl_impl[d] && ((decl_mod[d], decl_name[d], files[f]) in used)) ok = 1
          if (!ok)
            printf "%s:%d: val %s.%s is used nowhere else\n", decl_file[d], decl_line[d], decl_mod[d], decl_name[d]
        }
      }' $(find lib -name '*.mli' | LC_ALL=C sort) pass=1 $mls pass=2 $mls
}
unused="$(unused_exports)"
if [ -n "$unused" ]; then
  echo "$unused" >&2
  echo "ERROR: exports above have no user outside their own module; delete them or drop them from the .mli" >&2
  exit 1
fi

echo "== static analysis (minuet_lint) =="
# Two-phase invariant linter (DESIGN.md Secs. 13 and 17): per-file
# expression rules plus the interprocedural pass (transitive nondet
# reach, crash-swallow through call chains, 2PC op ordering, blocking
# under held locks). Emits BENCH_lint.json, whose gates fail the run on
# any unsuppressed finding or parse error and hold the whole-repo pass
# to a 10 s wall-time budget (a fixpoint or splice pass gone quadratic
# shows up there long before it hurts CI); then runs the fixture
# self-test, which includes the cross-module xmod/xswallow trees.
dune build @lint
lint="_build/default/bin/minuet_lint.exe"
"$lint" --json "$smoke_dir/BENCH_lint.json" lib bin test bench examples
check_report lint
"$lint" --quiet --fixtures test/lint_fixtures

echo "== lint falsifiability (each rule can fail the build) =="
# Seed each rule's bad fixture as a protocol source: the linter must
# reject it, and must go quiet when exactly that rule is disabled — a
# rule that can never fire protects nothing. protocol-order and
# blocking-under-lock are interprocedural but single-file-triggerable,
# so they ride the same loop.
seed_rule() {  # RULE AS SOURCE: SOURCE linted as path AS
  if "$lint" --quiet --as "$2" "$3" >/dev/null 2>&1; then
    echo "ERROR: rule $1 did not flag its seeded violation" >&2
    exit 1
  fi
  if ! "$lint" --quiet --as "$2" --disable "$1" "$3" >/dev/null 2>&1; then
    echo "ERROR: disabling $1 did not silence its seeded violation" >&2
    exit 1
  fi
}
for rule in crashed-swallow nondet-iteration wallclock-rng \
            partial-stdlib poly-compare \
            protocol-order blocking-under-lock; do
  seed_rule "$rule" lib/sinfonia/seeded.ml "test/lint_fixtures/bad_$(echo "$rule" | tr - _).ml"
done

# crash-swallow-transitive excludes protocol paths (the syntactic rule
# owns those), so its seed lands on a non-protocol path instead.
seed_rule crash-swallow-transitive lib/traffic/seeded.ml \
  test/lint_fixtures/bad_crash_swallow_transitive.ml

# transitive-nondet only fires when the source lives outside the
# determinism scope of its caller, which no single file can express:
# seed the cross-module xmod tree as lib/ via the --as directory form.
seed_rule transitive-nondet lib test/lint_fixtures/xmod/lib

echo "== benchmark self-test =="
# The repository benchmark's own correctness-gate falsifiability: a
# variant with leaf-read validation disabled must fail its gate, the
# honest variant must pass, and a seed must repeat byte for byte.
dune build @benchmark/selftest

echo "== observability smoke =="
dune exec bin/minuet_bench.exe -- smoke --dir "$smoke_dir"
check_report smoke

echo "== paper figures smoke =="
# Every figure of the paper's evaluation (Figs. 10-18 and the
# ablations) at toy size, through the same harness and printer as the
# full runs; all exits 1 when any figure returns no rows. Fig. 14
# preloads 6x --records (12 k keys here; 150 k at the fast and full
# sizes).
dune exec bin/minuet_bench.exe -- all --hosts 2 --records 2000 --duration 0.1 \
  --warmup 0.05 --clients-per-host 2 --scan-count 50

echo "== node-path micro-benchmark =="
# Zero-copy node views vs eager decodes on identical slotted payloads:
# the view must be at least 3x faster per lookup, the spliced leaf
# rewrite at least 2x faster than decode/edit/encode and byte-identical
# to it, and a corrupted slot directory must fail Bnode.decode's CRC.
# Emits BENCH_node.json (ns/lookup and ns/rewrite both sides, decodes
# avoided, bytes copied per scan hop).
dune exec bin/minuet_bench.exe -- node --dir "$smoke_dir"
check_report node

echo "== scan benchmark smoke =="
# Batched leaf scans vs the per-leaf baseline plus a crash storm; fails
# the build unless batching clears its 2x speedup floor, post-crash
# caches recover by epoch revalidation (never by a bulk flush), and the
# batched side holds its absolute floors (1200 scans/s, 15 leaves per
# round trip: the pre-zero-copy baseline measured 1168 scans/s) and its
# demand-sizing ratchets (at least 14.5 consumed leaves per round trip
# and at most 1.05 leaves fetched per leaf consumed; fetching every
# sibling read 14.37 and 1.066). Emits BENCH_scan.json (ops/s, leaves
# per round trip, cache hit rate).
dune exec bin/minuet_bench.exe -- scan --dir "$smoke_dir"
check_pinned scan

echo "== streaming checker: million-op gate =="
# A million-event synthetic history through Check.Stream, linear and
# branching; fails on any violation or if the checker's peak live heap
# exceeds the 64M-word budget (the O(active keys + budgets) memory
# bound). The linear run's BENCH_checker.json is the committed report.
dune exec bin/minuet_bench.exe -- checker --dir "$smoke_dir"
check_report checker
# The linear run's counts are a pure function of its seed, so they must
# equal the committed report's; on a difference both are printed.
# peak_live_words and ops_per_sec vary from run to run and are skipped.
checker_counts() {
  for field in events ops_checked snapshot_reads_checked branch_reads_checked violations; do
    grep -o "\"$field\":[0-9]*" "$1" || echo "$field missing"
  done
}
checker_counts BENCH_checker.json >"$smoke_dir/checker_committed.txt"
checker_counts "$smoke_dir/BENCH_checker.json" >"$smoke_dir/checker_fresh.txt"
diff "$smoke_dir/checker_committed.txt" "$smoke_dir/checker_fresh.txt" || {
  echo "ERROR: a fresh checker run's counts differ from BENCH_checker.json" >&2
  exit 1
}
dune exec bin/minuet_bench.exe -- checker --branching --dir "$smoke_dir"
check_report checker

echo "== streaming checker falsifiability =="
# One seeded lie must fail the run: a stale stamped read in the linear
# history, a frozen-version isolation leak in the branching one. The
# command exits nonzero itself when the checker misses the lie.
dune exec bin/minuet_bench.exe -- checker --ops 200000 --dir "$smoke_dir" \
  --inject stale-read
dune exec bin/minuet_bench.exe -- checker --ops 200000 --dir "$smoke_dir" \
  --branching --inject branch-isolation

echo "== production traffic: SLO gates through the checker =="
# Open-loop traffic scenarios (steady, diurnal, flash-crowd,
# shard-hotspot, chaos-overlapped storm, fig17/fig18 variants): every
# tenant must hold its p99/p999/error-budget SLO measured from
# scheduled arrival (queueing delay counts), every session history must
# pass the streaming serializability checker, and all structural audits
# must walk clean. Emits BENCH_traffic.json.
dune exec bin/minuet_bench.exe -- traffic --dir "$smoke_dir"
check_pinned traffic

echo "== traffic SLO falsifiability =="
# A tenant provisioned at one worker against 1500 scans/s: the open-loop
# queue grows without bound, so the p99 gate must trip and the command
# must exit nonzero. If this passes, the queueing-delay accounting has
# quietly turned into a closed loop (coordinated omission).
if dune exec bin/minuet_bench.exe -- traffic --scenario broken-slo --dir "$smoke_dir" \
    >/dev/null 2>&1; then
  echo "ERROR: broken-slo traffic run met its SLO; queueing delay is not being counted" >&2
  exit 1
fi
check_report traffic

echo "== chaos + serializability check =="
# Deterministic fault-injection storm with the history checker; fails
# the build on any serializability/snapshot violation or audit failure.
dune exec bin/minuet_bench.exe -- chaos --seed 42 --duration 2

echo "== branching chaos (writable clones, version tree) =="
# Real clone traffic through Mvcc.Branching under the default fault
# storm: branch-scoped operations are traced and every read pinned at a
# frozen version is checked against its frozen ancestor state. Seed 7
# pins the prepare-vote/stamp-draw crash window regression.
dune exec bin/minuet_bench.exe -- chaos --seed 7 --duration 1 --branching \
  --trace "$smoke_dir/history_a.jsonl"
dune exec bin/minuet_bench.exe -- chaos --seed 42 --duration 1 --branching

echo "== same-seed history determinism =="
# The simulator is a pure function of the seed: a second run of the
# seed-7 branching storm must dump a byte-identical event history
# (every event field, JSON-encoded one per line). So must two runs of
# the seed-11 scan-heavy storm in the baseline mode, whose commits echo
# sequence numbers to every memnode and validate them at one.
dune exec bin/minuet_bench.exe -- chaos --seed 7 --duration 1 --branching \
  --trace "$smoke_dir/history_b.jsonl" >/dev/null
cmp "$smoke_dir/history_a.jsonl" "$smoke_dir/history_b.jsonl"
for run in c d; do
  dune exec bin/minuet_bench.exe -- chaos --seed 11 --duration 1 --scan-heavy --cc validated \
    --trace "$smoke_dir/history_$run.jsonl" >/dev/null
done
cmp "$smoke_dir/history_c.jsonl" "$smoke_dir/history_d.jsonl"

echo "== staleness-bound chaos (SCS reuse window) =="
# A staleness-bounded SCS (k = 20 ms) under the default fault storm: a
# snapshot may be reused for k seconds from when its creation started,
# never from when a creation slowed by lock waits or replica lag
# finished. Seeds 5 and 10 failed the checker when the window counted
# from completion.
for seed in 5 10; do
  dune exec bin/minuet_bench.exe -- chaos --seed "$seed" --duration 0.3 --scs-k 0.02
done

echo "== chaos checker catches broken branch isolation =="
# With copy-on-write sharing deliberately broken, writes leak into
# frozen ancestor versions; the branching chaos run must FAIL.
if dune exec bin/minuet_bench.exe -- chaos --seed 3 --duration 0.5 --branching \
    --broken-branch >/dev/null 2>&1; then
  echo "ERROR: --broken-branch chaos run passed; isolation leaks went unnoticed" >&2
  exit 1
fi

echo "== scan-heavy chaos (both concurrency-control modes) =="
# Scan-dominated mix: long batched range scans over splitting/merging
# leaves, every snapshot scan double-checked against the per-leaf path.
dune exec bin/minuet_bench.exe -- chaos --seed 11 --duration 1 --scan-heavy --cc dirty
dune exec bin/minuet_bench.exe -- chaos --seed 11 --duration 1 --scan-heavy --cc validated
# Dirty batch fetches read each memnode in its own one-phase
# minitransaction; crashes and partitions must abort them cleanly.
dune exec bin/minuet_bench.exe -- chaos --seed 12 --duration 1 --scan-heavy \
  --faults crash,partition,mpartition --cc dirty

echo "== mid-2PC crash storm (3 seeds) =="
# Mid-transaction crashes, mirror-link partitions and replica lag: the
# redo-log/recovery path must keep every history serializable, every
# 2PC decision atomic across participants, and the in-doubt set drained.
for seed in 1 7 42; do
  dune exec bin/minuet_bench.exe -- chaos --seed "$seed" --duration 1 \
    --faults crash,mpartition,replag
done

echo "== chaos checker catches injected bugs =="
# With leaf-read validation deliberately broken the same pipeline must
# FAIL — a checker that never fires would let real violations through.
if dune exec bin/minuet_bench.exe -- chaos --seed 7 --duration 0.5 --broken \
    --clients 8 --keys 24 >/dev/null 2>&1; then
  echo "ERROR: --broken chaos run passed; the checker caught nothing" >&2
  exit 1
fi

echo "== chaos checker catches broken recovery =="
# With the redo-log replay disabled, committed-but-unmirrored writes are
# lost on promotion/recovery; the mid-crash storm must catch it (checker
# violation, failed structural audit, or the corruption crashing the run
# — all reported as failures).
if dune exec bin/minuet_bench.exe -- chaos --seed 7 --duration 1 \
    --faults crash,replag --broken-recovery >/dev/null 2>&1; then
  echo "ERROR: --broken-recovery chaos run passed; lost writes went unnoticed" >&2
  exit 1
fi

echo "== examples (asserting) =="
# Each example exits 1 when the guarantee it prints fails: reads and
# writes survive a failover (fault_tolerance), money is conserved under
# concurrent transfers and snapshot audits (bank_transfers), every
# snapshot scan returns the whole book and GC reclaims old versions
# (hybrid_analytics), and what-if branches conserve value and a deleted
# branch's storage is reclaimed (what_if_analysis).
for ex in fault_tolerance bank_transfers hybrid_analytics what_if_analysis; do
  dune exec "examples/$ex.exe"
done

echo "CI OK"
