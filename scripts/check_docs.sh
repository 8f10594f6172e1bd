#!/usr/bin/env bash
# Documentation gate: rustdoc warnings denied, doctests, the trace
# schema-drift check, the shim-table drift check and the default-members
# drift check. Invoked by scripts/ci.sh stage 5 and runnable on
# its own.
#
# The schema-drift check keeps docs/OBSERVABILITY.md honest: every
# event kind the code can emit (the match arms of TraceEvent::kind(),
# including `cloud_batch` / `cloud_scale` from the elastic cloud tier)
# must appear as a row in the doc's event-schema tables, and vice
# versa. It is generic over the kind list, so adding an event without
# documenting it — or documenting one that does not exist — fails CI.
#
# Usage: ./scripts/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "-- rustdoc (warnings denied) + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test --doc --workspace -q

echo "-- trace schema drift (event.rs vs docs/OBSERVABILITY.md)"
# Kinds the code can emit: the match arms of TraceEvent::kind().
code_kinds=$(sed -n '/fn kind(/,/^    }$/p' crates/trace/src/event.rs \
    | grep -oE '=> "[a-z_]+"' | grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
# Kinds documented in the event-schema tables (first backticked cell
# of each row between the Event schema and Metrics registry headings).
doc_kinds=$(sed -n '/^## Event schema/,/^## Metrics registry/p' docs/OBSERVABILITY.md \
    | grep -oE '^\| `[a-z_]+` \|' | grep -oE '`[a-z_]+`' | tr -d '`' | sort -u)
if ! diff <(echo "$code_kinds") <(echo "$doc_kinds") >/dev/null; then
    echo "event kinds out of sync (< code only, > docs only):"
    diff <(echo "$code_kinds") <(echo "$doc_kinds") | grep '^[<>]' || true
    exit 1
fi
echo "$(echo "$code_kinds" | wc -l) kinds documented, no drift"

echo "-- bench artifact schema drift (suite.rs vs docs/CI.md)"
# Every schema tag the suite serializers emit (lgv-bench-suite/vN,
# lgv-bench-profile/vN, lgv-bench-history/vN) must be the version
# documented in docs/CI.md, and vice versa — bumping a serializer
# without touching the docs (or the other way round) fails CI.
code_schemas=$(grep -oE 'lgv-bench-[a-z]+/v[0-9]+' crates/bench/src/suite.rs | sort -u)
doc_schemas=$(grep -oE 'lgv-bench-[a-z]+/v[0-9]+' docs/CI.md | sort -u)
if ! diff <(echo "$code_schemas") <(echo "$doc_schemas") >/dev/null; then
    echo "bench artifact schemas out of sync (< code only, > docs only):"
    diff <(echo "$code_schemas") <(echo "$doc_schemas") | grep '^[<>]' || true
    exit 1
fi
echo "$(echo "$code_schemas" | wc -l) artifact schemas documented, no drift"

echo "-- shim table drift (crates/shims/ vs crates/shims/README.md)"
# Every shim crate directory must have a row in the README's table, and
# every row must name a shim that exists — removing or adding a shim
# without touching the table fails CI.
dir_shims=$(find crates/shims -mindepth 1 -maxdepth 1 -type d -printf '%f\n' | sort -u)
doc_shims=$(grep -oE '^\| `[a-z_]+` \|' crates/shims/README.md \
    | grep -oE '`[a-z_]+`' | tr -d '`' | sort -u)
if ! diff <(echo "$dir_shims") <(echo "$doc_shims") >/dev/null; then
    echo "shims out of sync (< crates/shims/ only, > README only):"
    diff <(echo "$dir_shims") <(echo "$doc_shims") | grep '^[<>]' || true
    exit 1
fi
echo "$(echo "$dir_shims" | wc -l) shims documented, no drift"

echo "-- default-members drift (workspace members vs default-members)"
# `members` globs `crates/shims/*` while `default-members` lists every
# crate by hand. The tier-1 `cargo test -q` runs only default members,
# so a crate missing from that list silently drops out of it.
cargo metadata --no-deps --offline --format-version 1 | python3 -c '
import json, sys
m = json.load(sys.stdin)
members = set(m["workspace_members"])
defaults = set(m["workspace_default_members"])
for pkg in sorted(members - defaults):
    print("member missing from default-members:", pkg)
for pkg in sorted(defaults - members):
    print("default member not in members:", pkg)
sys.exit(members != defaults)
'
echo "default-members lists every workspace member"

echo "-- cross-linked docs exist"
# The navigable doc set (README -> ARCHITECTURE -> subsystem docs);
# a missing file here means a dangling link somewhere.
for doc in docs/ARCHITECTURE.md docs/FLEET.md docs/OBSERVABILITY.md \
    docs/RESILIENCE.md docs/POLICY.md docs/CI.md; do
    [ -f "$doc" ] || { echo "missing $doc"; exit 1; }
done
grep -q 'docs/ARCHITECTURE.md' README.md \
    || { echo "README.md does not link docs/ARCHITECTURE.md"; exit 1; }

echo "docs OK"
