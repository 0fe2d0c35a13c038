#!/usr/bin/env bash
# End-to-end exercise of the snapshot subsystem against a real build:
# build an image from N-Triples, verify it, export it back (must be the
# same triple set), then flip one bit and require verification to fail.
# Runs the whole round twice — once with the legacy raw index format
# (version-1 image) and once with the compressed block format (version-2
# image with per-block checksums) — and cross-checks that both images
# export the identical triple set. Run under each sanitizer job so the
# loader's corruption paths stay ASan/TSan-clean. The fixture's labels
# include a multi-word one and a case-only duplicate, and the text_index
# section must hash the same in both images (it depends only on the
# dictionary, not on the index format).
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

round_trip() {
  local format="$1"
  local snap="$WORK/data-$format.snap"
  "$CLI" build "--format=$format" "$WORK/data.nt" "$snap" http://e/Obs
  "$CLI" inspect "$snap" | tee "$WORK/inspect-$format"
  "$CLI" verify "$snap"
  awk '/text_index/{for (i = 1; i <= NF; i++) if ($i ~ /^xxh64=/) print $i}' \
    "$WORK/inspect-$format" > "$WORK/text-$format"
  if [ ! -s "$WORK/text-$format" ]; then
    echo "ERROR: inspect printed no text_index checksum for $format" >&2
    exit 1
  fi

  "$CLI" export "$snap" "$WORK/export-$format.nt"
  sort "$WORK/export-$format.nt" > "$WORK/got-$format"
  diff "$WORK/expected" "$WORK/got-$format"

  # Flip one bit inside the last section's payload (a blind mid-file flip
  # can land in 64-byte alignment padding, which no checksum covers);
  # verification must now fail with a typed error.
  read -r off len < <("$CLI" inspect "$snap" |
    awk -F'[= ]+' '/offset=/{o=$4; b=$6} END{print o, b}')
  python3 - "$snap" "$off" "$len" <<'PYEOF'
import pathlib, sys
p = pathlib.Path(sys.argv[1])
off, ln = int(sys.argv[2]), int(sys.argv[3])
b = bytearray(p.read_bytes())
b[off + ln // 2] ^= 0x40
p.write_bytes(b)
PYEOF
  if "$CLI" verify "$snap"; then
    echo "ERROR: verify succeeded on a corrupted $format image" >&2
    exit 1
  fi
}

round_trip raw
round_trip compressed

# The two formats must export the identical triple set and carry the
# identical text index section.
diff "$WORK/got-raw" "$WORK/got-compressed"
diff "$WORK/text-raw" "$WORK/text-compressed"
echo "snapshot round-trip OK (raw + compressed)"
