#!/usr/bin/env bash
# Reach check: every non-test function has a user.
#
# Builds each driver this repository has with coverage of every hermes
# package (the three commands, the four examples, the bench/ module), runs
# them (benchrunner -fig all; each BENCHMARK.json workload untraced and
# traced; a hermes one-shot query and a piped shell session), adds the
# tests of cmd/hermesd and cmd/hermes as the daemons' drivers, merges
# the counters and lists every function no driver executed. A function may
# be unreached only if tools/reach.allow names it, with one of the five
# classes the file's header defines. Exit 1 on a function that is
# unreached and unlisted, or listed and reached.
#
# Usage, from anywhere: bash tools/reach.sh
# Everything it writes goes under .reach_build at the repository root
# (REACH_DIR overrides); nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
allow="$root/tools/reach.allow"
out="${REACH_DIR:-$root/.reach_build}"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off LC_ALL=C
cov="$out/cov"
rm -rf "$cov" "$out/bin"
mkdir -p "$cov" "$out/bin"

build() { # build <output name> <module directory> <package>
	(cd "$2" && go build -cover -coverpkg=hermes/... -o "$out/bin/$1" "$3")
}
drive() { # drive <binary name> <args...>: run it for its counters alone
	local name="$1"
	shift
	GOCOVERDIR="$cov" "$out/bin/$name" "$@" >/dev/null
}

echo "reach: building instrumented drivers" >&2
for cmd in benchrunner hermes hermesd; do
	build "$cmd" . "./cmd/$cmd"
done
for ex in federation logistics quickstart videodb; do
	build "example-$ex" . "./examples/$ex"
done
build hermes-bench bench .

echo "reach: running them" >&2
drive benchrunner -fig all -out "$out/figure.json"
for ex in federation logistics quickstart videodb; do
	drive "example-$ex"
done
for w in cache_hot cache_churn join_scan two_hop; do
	for trace in 0 1; do
		drive hermes-bench --workload "$w" --seed 1 --seconds 2 --trace "$trace"
	done
done
drive hermes -query '?- actors(A).' -explain -trace
printf '%s\n' '?- actors(A).' '\plans ?- actors(A).' '\stats' '\cache' '\quit' | drive hermes
# A live hermesd only ever dies by signal and so writes no counters: its
# drivers are its tests, plus the one run that exits by itself.
if drive hermesd -shed-policy bogus 2>/dev/null; then
	echo "reach: hermesd accepted -shed-policy bogus" >&2
	exit 1
fi
go test -count=1 -cover -coverpkg=hermes/... ./cmd/hermesd ./cmd/hermes -args -test.gocoverdir="$cov" >/dev/null

# One line per function no driver executed: "<file>:<function>". The
# drivers themselves (bench/, tools/) are not what is being checked.
go tool covdata func -i="$cov" |
	awk '$NF == "0.0%" { sub(/^hermes\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 ":" $2 }' |
	{ grep -v -e '^bench/' -e '^tools/' || true; } | sort -u >"$out/unreached.txt"

# The allow-list: "<file>:<function> <class> <why>", '#' starts a comment.
classes='safety|scaffold|reference|paper|demo'
grep -v -e '^#' -e '^$' "$allow" >"$out/allow.txt" || true
if bad="$(grep -v -E "^[^ ]+ ($classes) .+" "$out/allow.txt")"; then
	echo "reach: tools/reach.allow entries without a class ($classes) and a reason:" >&2
	echo "$bad" >&2
	exit 1
fi
if bad="$(grep -E '^[^ ]+ paper ' "$out/allow.txt" | grep -v -F '§')"; then
	echo "reach: tools/reach.allow paper entries whose reason cites no section of the paper (§):" >&2
	echo "$bad" >&2
	exit 1
fi
cut -d' ' -f1 "$out/allow.txt" | sort -u >"$out/allowed.txt"

unlisted="$(comm -23 "$out/unreached.txt" "$out/allowed.txt")"
stale="$(comm -13 "$out/unreached.txt" "$out/allowed.txt")"
status=0
if [ -n "$unlisted" ]; then
	echo "reach: no driver executes these functions and tools/reach.allow does not list them — delete them, give them a user, or list them with a class:" >&2
	echo "$unlisted" >&2
	status=1
fi
if [ -n "$stale" ]; then
	echo "reach: tools/reach.allow lists these functions, but a driver reaches them (or they are gone) — drop the entries:" >&2
	echo "$stale" >&2
	status=1
fi
[ "$status" -ne 0 ] || echo "reach: $(wc -l <"$out/unreached.txt") unreached functions, all listed in tools/reach.allow"
exit "$status"
