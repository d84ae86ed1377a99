#!/usr/bin/env bash
# Byte-identity check of the CLI outputs between two source trees of this
# repository, e.g. a checkout of the parent commit and the working tree:
#
#   git archive HEAD~1 | tar -x -C /tmp/parent
#   scripts/compare_outputs.sh /tmp/parent .
#
# For each tree it builds parchmint-gen, parchmint-convert and
# parchmint-pnr, writes every suite device with `parchmint-gen -all`,
# converts each file with `-to json` and `-to mint`, and places and routes
# it with the default engines, with `-replicas 4` (parallel tempering) and
# with `-placer greedy -router hadlock`.
# Every output of the second tree must equal the first tree's byte for
# byte; the script lists each difference and exits 1 if there is one.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 OLD_TREE NEW_TREE" >&2
	exit 2
fi
GO=${GO:-go}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run_tree() {
	local src=$1 out=$2
	mkdir -p "$out/bin" "$out/gen" "$out/conv" "$out/pnr"
	(cd "$src" && "$GO" build -o "$out/bin/" ./cmd/parchmint-gen ./cmd/parchmint-convert ./cmd/parchmint-pnr)
	"$out/bin/parchmint-gen" -all -dir "$out/gen" >/dev/null
	for f in "$out"/gen/*.json; do
		local name
		name=$(basename "$f" .json)
		"$out/bin/parchmint-convert" -to json -o "$out/conv/$name.json" "$f"
		"$out/bin/parchmint-convert" -to mint -o "$out/conv/$name.mint" "$f" 2>/dev/null
		"$out/bin/parchmint-pnr" -o "$out/pnr/$name.default.json" "$f" 2>/dev/null
		"$out/bin/parchmint-pnr" -replicas 4 -o "$out/pnr/$name.replicas4.json" "$f" 2>/dev/null
		"$out/bin/parchmint-pnr" -placer greedy -router hadlock -o "$out/pnr/$name.greedy-hadlock.json" "$f" 2>/dev/null
	done
}

run_tree "$1" "$work/old"
run_tree "$2" "$work/new"

status=0
files=0
for f in "$work"/old/gen/* "$work"/old/conv/* "$work"/old/pnr/*; do
	rel=${f#"$work"/old/}
	files=$((files + 1))
	if ! cmp -s "$f" "$work/new/$rel"; then
		echo "differs: $rel"
		status=1
	fi
done
if [ "$(find "$work/old" -path "$work/old/bin" -prune -o -type f -print | wc -l)" != \
	"$(find "$work/new" -path "$work/new/bin" -prune -o -type f -print | wc -l)" ]; then
	echo "the two trees wrote different numbers of files"
	status=1
fi
if [ $status -eq 0 ]; then
	echo "compare_outputs: $files files byte-identical"
fi
exit $status
