# pin CODE SHA ARGS...: `ellop ARGS...`, run from src, must exit with CODE
# and print a stdout with SHA-256 SHA; it prints both on a mismatch and
# returns 1.  constraints runs with numpy blocked, so its pins also show
# that the high-gap exact path never imports numpy.  The pin steps of
# workflows/tests.yml source this file.
pin() {
  want_code=$1 want_sha=$2
  shift 2
  cli=(-m ellop.cli)
  if [ "$1" = constraints ]; then
    cli=(-c 'import runpy, sys; sys.modules["numpy"] = None; runpy.run_module("ellop.cli", run_name="__main__")')
  fi
  code=0
  PYTHONPATH=src python "${cli[@]}" "$@" < /dev/null > pin.out || code=$?
  got=$(sha256sum < pin.out | cut -d ' ' -f 1)
  if [ "$code" != "$want_code" ] || [ "$got" != "$want_sha" ]; then
    echo "$*: exit $code, sha256 $got; pinned exit $want_code, sha256 $want_sha"
    return 1
  fi
}
