#!/bin/sh
# explain-smoke: gate the decision log and the root-cause pipeline end
# to end. A fileserver run with an injected spin-up-fault storm under a
# deliberately tight energy budget must produce an `esmstat explain`
# report that names the injected cause — and the ESM run's decision
# log and the rendered report must be byte-identical across a rerun.
# Then a default-scale run, whose ESM log outgrows the live tail
# several times over, must write every record: the file holds as many
# lines as the manifest counts, and explain reports the manifest's
# determinations and spin-ups. The three reports
# must equal the ones pinned under scripts/testdata/explain-smoke, with
# the input file's base name on the first line replaced by "<log>".
set -eu

GO=${GO:-go}
DIR=${EXPLAIN_SMOKE_DIR:-/tmp/esm-explain-smoke}
rm -rf "$DIR"
mkdir -p "$DIR"

$GO build -o "$DIR/esmbench" ./cmd/esmbench
$GO build -o "$DIR/esmstat" ./cmd/esmstat

# The injected cause: seeded spin-up failures (half of all spin-up
# attempts fault) while an energy budget just below the run's total
# fires the watchdog late enough that the alert-derived window holds
# real decision-log activity.
FAULTS='seed=42,spinup=0.5'
ALERTS='budget:total_energy_j>5e6:for=30s'

bench() { # bench OUTDIR [extra flags...]
    out=$1
    shift
    "$DIR/esmbench" -workload fileserver -scale 0.1 -fig 8 \
        -faults "$FAULTS" -alerts "$ALERTS" \
        -series "$out" -events "$out/events.jsonl" "$@" \
        > "$out.log" 2>&1 || { cat "$out.log"; exit 1; }
}

echo "== run and rerun"
bench "$DIR/a"
bench "$DIR/b"

# Every replay writes its own decision log, so the ESM run's file is
# deterministic whatever the other replays do.
echo "== decision log byte-identity across the rerun"
test -s "$DIR/a/events-fileserver-esm.jsonl" || { echo "no fileserver/esm events recorded"; exit 1; }
cmp "$DIR/a/events-fileserver-esm.jsonl" "$DIR/b/events-fileserver-esm.jsonl"

echo "== flight series time-aligned diff (the rerun must be identical)"
"$DIR/esmstat" diff -series \
    "$DIR/a/fileserver-esm.series.csv" "$DIR/b/fileserver-esm.series.csv"

echo "== explain over the whole run must name the injected cause"
"$DIR/esmstat" explain -since 0s "$DIR/a/events-fileserver-esm.jsonl" \
    > "$DIR/report-a.txt"
"$DIR/esmstat" explain -since 0s "$DIR/b/events-fileserver-esm.jsonl" \
    > "$DIR/report-b.txt"
cmp "$DIR/report-a.txt" "$DIR/report-b.txt"
grep -q 'fault burst: 20 injected faults (causes: spinup-fail x20)' "$DIR/report-a.txt" || {
    cat "$DIR/report-a.txt"
    echo "explain report does not name the injected fault burst"
    exit 1
}
grep -q 'spin-up storm' "$DIR/report-a.txt" || {
    cat "$DIR/report-a.txt"
    echo "explain report does not surface the spin-up storm"
    exit 1
}

echo "== explain from the alert firing must window in the fault burst"
"$DIR/esmstat" explain -alert budget -run fileserver/esm -window 24h \
    "$DIR/a/events-fileserver-esm.jsonl" > "$DIR/report-alert.txt"
grep -q 'alert budget first fired at' "$DIR/report-alert.txt" || {
    cat "$DIR/report-alert.txt"
    echo "explain did not resolve the alert firing"
    exit 1
}
grep -q 'fault burst: .* injected faults (causes: spinup-fail' "$DIR/report-alert.txt" || {
    cat "$DIR/report-alert.txt"
    echo "alert-derived window misses the injected fault burst"
    exit 1
}

echo "== a log past the live tail is written losslessly"
full="$DIR/full"
mkdir -p "$full"
"$DIR/esmbench" -workload fileserver -fig 8 \
    -events "$full/events.jsonl" -series "$full" > "$full.log" 2>&1 || { cat "$full.log"; exit 1; }
total() { # total KEY: one integer of the ESM run manifest's totals
    sed -n "s/^ *\"$1\": \([0-9]*\),\{0,1\}\$/\1/p" "$full/BENCH_fileserver-esm.json"
}
rows=$(wc -l < "$full/events-fileserver-esm.jsonl")
test "$rows" -eq "$(total provenance_records)" || {
    echo "log holds $rows lines, the manifest counts $(total provenance_records)"
    exit 1
}
"$DIR/esmstat" explain -since 0s "$full/events-fileserver-esm.jsonl" > "$DIR/report-full.txt"
dets=$(sed -n 's/^  determinations \([0-9]*\).*/\1/p' "$DIR/report-full.txt")
spins=$(sed -n 's/^  runtime *\([0-9]*\) spin-ups.*/\1/p' "$DIR/report-full.txt")
test "$dets" = "$(total determinations)" && test "$spins" = "$(total spin_ups)" || {
    cat "$DIR/report-full.txt"
    echo "explain counts $dets determinations, $spins spin-ups; the manifest $(total determinations), $(total spin_ups)"
    exit 1
}
echo "   $rows records, $dets determinations, $spins spin-ups"

echo "== the reports equal the pinned ones"
for r in report-a report-alert report-full; do
    sed '1s/^explain [^:]*:/explain <log>:/' "$DIR/$r.txt" |
        cmp - "scripts/testdata/explain-smoke/$r.txt" || {
        echo "$r differs from scripts/testdata/explain-smoke/$r.txt"
        exit 1
    }
done

cat "$DIR/report-a.txt"
echo "explain-smoke OK"
