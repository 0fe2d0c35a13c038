#!/usr/bin/env bash
# End-to-end exercise of the snapshot subsystem against a real build:
# build an image from N-Triples, verify it, export it back (must be the
# same triple set), then flip one bit and require verification to fail.
# The image must be format version 4 (the one version this build reads
# and writes), carry a text_index section and no osp section (the OSP
# order is a view over POS, never written). Run under
# each sanitizer job so the loader's corruption paths stay ASan/TSan-clean.
# The fixture's labels include a multi-word one and a case-only duplicate.
set -euo pipefail

BUILD_DIR="${1:?usage: snapshot_roundtrip.sh <build-dir>}"
CLI="$BUILD_DIR/examples/re2xolap_snapshot"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/data.nt" <<'EOF'
<http://e/obs1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> .
<http://e/obs1> <http://e/dest> <http://e/de> .
<http://e/obs1> <http://e/count> "42"^^xsd:integer .
<http://e/obs2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> .
<http://e/obs2> <http://e/dest> <http://e/fr> .
<http://e/obs2> <http://e/count> "7"^^xsd:integer .
<http://e/de> <http://e/label> "Germany" .
<http://e/fr> <http://e/label> "France" .
<http://e/de> <http://e/altLabel> "GERMANY" .
<http://e/fr> <http://e/altLabel> "French Republic of 2014" .
EOF

sort "$WORK/data.nt" > "$WORK/expected"

SNAP="$WORK/data.snap"
"$CLI" build "$WORK/data.nt" "$SNAP" http://e/Obs
"$CLI" inspect "$SNAP" | tee "$WORK/inspect"
if ! grep -qx 'version: *4' "$WORK/inspect"; then
  echo "ERROR: inspect did not report version=4" >&2
  exit 1
fi
if ! grep -q '^  text_index .*xxh64=' "$WORK/inspect"; then
  echo "ERROR: inspect printed no text_index checksum" >&2
  exit 1
fi
if grep -q '^  osp ' "$WORK/inspect"; then
  echo "ERROR: inspect lists an osp section on a freshly built image" >&2
  exit 1
fi
"$CLI" verify "$SNAP"

"$CLI" export "$SNAP" "$WORK/export.nt"
sort "$WORK/export.nt" > "$WORK/got"
diff "$WORK/expected" "$WORK/got"

# Flip one bit inside the last section's payload (a blind mid-file flip
# can land in 64-byte alignment padding, which no checksum covers);
# verification must now fail with a typed error.
read -r off len < <("$CLI" inspect "$SNAP" |
  awk -F'[= ]+' '/offset=/{o=$4; b=$6} END{print o, b}')
python3 - "$SNAP" "$off" "$len" <<'PYEOF'
import pathlib, sys
p = pathlib.Path(sys.argv[1])
off, ln = int(sys.argv[2]), int(sys.argv[3])
b = bytearray(p.read_bytes())
b[off + ln // 2] ^= 0x40
p.write_bytes(b)
PYEOF
if "$CLI" verify "$SNAP"; then
  echo "ERROR: verify succeeded on a corrupted image" >&2
  exit 1
fi
echo "snapshot round-trip OK"
