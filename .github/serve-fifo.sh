# Boots the release `twca serve --listen 127.0.0.1:0` behind a FIFO for
# a CI smoke step. Source it from bash running under `set -euo pipefail`:
#
#   . .github/serve-fifo.sh PREFIX [serve flags...]
#
# Starts the server with stdin on the FIFO PREFIX_stdin, stdout in
# PREFIX_stdout.txt and stderr in PREFIX_stderr.txt; sets SERVE_PID and
# ADDR (the bound host:port) and holds fd 3 open on the FIFO, so the
# server stays up until the step runs `exec 3>&-` (EOF on the stdio
# lane is the drain signal). Fails the step when no "listening on" line
# appears within 10 s, instead of handing an empty ADDR to the client.

serve_prefix=$1
shift
mkfifo "${serve_prefix}_stdin"
./target/release/twca serve --listen 127.0.0.1:0 "$@" \
  < "${serve_prefix}_stdin" > "${serve_prefix}_stdout.txt" 2> "${serve_prefix}_stderr.txt" &
SERVE_PID=$!
exec 3> "${serve_prefix}_stdin"
for _ in $(seq 50); do
  grep -qs "listening on" "${serve_prefix}_stderr.txt" && break
  sleep 0.2
done
ADDR=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "${serve_prefix}_stderr.txt" 2> /dev/null || true)
if [ -z "$ADDR" ]; then
  echo "twca serve printed no \"listening on\" line within 10 s:" >&2
  cat "${serve_prefix}_stderr.txt" >&2
  return 1
fi
