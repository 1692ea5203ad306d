#!/bin/sh
# explain-smoke: gate the decision-provenance ledger and the root-cause
# pipeline end to end. A fileserver run with an injected spin-up-fault
# storm under a deliberately tight energy budget must produce an
# `esmstat explain` report that names the injected cause — and both the
# ledger and the rendered report must be byte-identical across a rerun.
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
# real ledger activity.
FAULTS='seed=42,spinup=0.5'
ALERTS='budget:total_energy_j>5e6:for=30s'

bench() { # bench OUTDIR [extra flags...]
    out=$1
    shift
    "$DIR/esmbench" -workload fileserver -scale 0.1 -fig 8 \
        -faults "$FAULTS" -alerts "$ALERTS" \
        -series "$out" -provenance -events "$out/events.jsonl" "$@" \
        > "$out.log" 2>&1 || { cat "$out.log"; exit 1; }
}

echo "== run and rerun"
bench "$DIR/a"
bench "$DIR/b"

echo "== ledger byte-identity across the rerun"
cmp "$DIR/a/fileserver-esm.prov.csv" "$DIR/b/fileserver-esm.prov.csv"

echo "== flight series time-aligned diff (the rerun must be identical)"
"$DIR/esmstat" diff -series \
    "$DIR/a/fileserver-esm.series.csv" "$DIR/b/fileserver-esm.series.csv"

echo "== explain over the whole run must name the injected cause"
"$DIR/esmstat" explain -since 0s "$DIR/a/fileserver-esm.prov.csv" \
    > "$DIR/report-a.txt"
"$DIR/esmstat" explain -since 0s "$DIR/b/fileserver-esm.prov.csv" \
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
"$DIR/esmstat" explain -alert budget -run fileserver/esm \
    -events "$DIR/a/events.jsonl" -window 24h \
    "$DIR/a/fileserver-esm.prov.csv" > "$DIR/report-alert.txt"
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

cat "$DIR/report-a.txt"
echo "explain-smoke OK"
