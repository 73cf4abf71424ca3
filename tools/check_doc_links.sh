#!/usr/bin/env bash
# Verifies that every relative markdown link in README.md and docs/*.md
# resolves to an existing file or directory. External links (http/https/
# mailto) and pure in-page anchors are skipped; a `#fragment` suffix on a
# relative link is stripped before the existence check. It also verifies
# that every `*.md` path named in the sources (src/, tests/, tools/, bench/,
# examples/) resolves against the repo root or the naming file's directory.
# Exits non-zero and lists every broken link or path. Run from anywhere;
# paths resolve against the repo root.
set -u
cd "$(dirname "$0")/.."

fail=0
for f in README.md docs/*.md; do
  [ -e "$f" ] || continue
  dir=$(dirname "$f")
  # Extract the (target) of every [text](target) markdown link.
  while IFS= read -r link; do
    case "$link" in
      http://* | https://* | mailto:* | "#"*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "BROKEN LINK in $f: ($link)"
      fail=1
    fi
  done < <(grep -o '\[[^][]*\]([^()]*)' "$f" | sed 's/^.*(\(.*\))$/\1/')
done

# Every markdown path a source file names, as in a comment that says "see".
while IFS=: read -r file line path; do
  if [ ! -e "$path" ] && [ ! -e "$(dirname "$file")/$path" ]; then
    echo "MISSING DOC in $file:$line: $path"
    fail=1
  fi
done < <(grep -rnoE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' src tests tools bench examples)

if [ "$fail" -ne 0 ]; then
  echo "doc link check FAILED"
  exit 1
fi
echo "doc links OK"
