#!/usr/bin/env bash
# Runs a name-filtered `cargo test` command, after checking that every
# filter matches at least one test: libtest passes a filter that matches
# nothing with "0 passed", so a renamed test would drop out unseen.
#
# Usage: filtered-test.sh cargo [+toolchain] test <cargo args> -- <filter>...
set -euo pipefail

args=("$@")
split=
for i in "${!args[@]}"; do
  if [[ ${args[$i]} == -- ]]; then
    split=$i
    break
  fi
done
if [[ -z $split ]] || ((split + 1 == ${#args[@]})); then
  echo "filtered-test.sh: no filter after '--' in: $*" >&2
  exit 2
fi
cargo_cmd=("${args[@]:0:split}")
for filter in "${args[@]:split+1}"; do
  [[ $filter == -* ]] && continue
  listed=$("${cargo_cmd[@]}" -- "$filter" --list)
  if ! grep -q ': test$' <<<"$listed"; then
    echo "filtered-test.sh: filter '$filter' matches no test in: ${cargo_cmd[*]}" >&2
    exit 1
  fi
done
exec "$@"
