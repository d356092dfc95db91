#!/usr/bin/env bash
# Loopback deployment launcher: runs one ppgr_cli-style instance file as
# n+1 real OS processes (one ppgr_party per protocol party) over localhost
# TCP, and prints the ranking assembled from the participants' own-rank
# lines (the initiator itself learns only the top-k submissions).
#
# The instance file is split into the public spec (spec/group/k + a derived
# `parties` count) and per-party private inputs (criterion+weights for the
# initiator, one participant line each for parties 1..n) — each process
# only ever reads its own share, like a real deployment would.
#
# All per-party artifacts (spec, inputs, logs, exit codes) land in the work
# directory (default: a fresh mktemp -d, printed at the end; kept on
# failure for inspection).
#
# Exit: 0 = all parties completed; 4 = some party exited with a protocol /
# transport fault; 2 = usage error; 1 = anything else.
set -euo pipefail

usage() {
  cat <<'EOF'
usage: run_local.sh INSTANCE_FILE [options]

  INSTANCE_FILE      full ppgr_cli instance file (spec/group/k/criterion/
                     weights/participant directives)
  --seed N           shared ChaCha20 seed handed to every party; makes the
                     socket run bit-identical to `ppgr_cli INSTANCE --seed N`
  --framework he|ss  protocol selection, forwarded to every party
                     (default he)
  --threshold T      SS threshold, forwarded when --framework ss
  --base-port P      first listen port; party i listens on P+i
                     (default: random in 20000..39999)
  --bin PATH         ppgr_party binary
                     (default: build/examples/ppgr_party next to this repo)
  --work-dir DIR     working directory for split inputs and per-party logs
                     (default: mktemp -d)
  --keep             keep the work directory on success too
  --help             show this message
EOF
}

here="$(cd "$(dirname "$0")/.." && pwd)"
instance=""
seed_args=()
fw_args=()
base_port=$((20000 + RANDOM % 20000))
bin="${here}/build/examples/ppgr_party"
work=""
keep=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --help|-h) usage; exit 0 ;;
    --seed) seed_args=(--seed "${2:?--seed needs a value}"); shift 2 ;;
    --framework) fw_args+=(--framework "${2:?--framework needs a value}"); shift 2 ;;
    --threshold) fw_args+=(--threshold "${2:?--threshold needs a value}"); shift 2 ;;
    --base-port) base_port="${2:?--base-port needs a value}"; shift 2 ;;
    --bin) bin="${2:?--bin needs a value}"; shift 2 ;;
    --work-dir) work="${2:?--work-dir needs a value}"; shift 2 ;;
    --keep) keep=1; shift ;;
    -*) echo "run_local.sh: unknown option '$1'" >&2; usage >&2; exit 2 ;;
    *)
      if [[ -n "${instance}" ]]; then
        echo "run_local.sh: more than one instance file" >&2; exit 2
      fi
      instance="$1"; shift ;;
  esac
done

if [[ -z "${instance}" ]]; then
  echo "run_local.sh: missing INSTANCE_FILE" >&2; usage >&2; exit 2
fi
if [[ ! -r "${instance}" ]]; then
  echo "run_local.sh: cannot read '${instance}'" >&2; exit 1
fi
if [[ ! -x "${bin}" ]]; then
  echo "run_local.sh: ppgr_party binary not found at '${bin}'" >&2
  echo "  build it first: cmake -B build -S . && cmake --build build -j --target ppgr_party" >&2
  exit 1
fi

if [[ -z "${work}" ]]; then
  work="$(mktemp -d "${TMPDIR:-/tmp}/ppgr_local.XXXXXX")"
else
  mkdir -p "${work}"
fi

# Split the instance file: spec/group/k go into the public spec (plus the
# participant count), criterion+weights into party 0's input, the i-th
# participant line into party i's input.
n="$(awk -v work="${work}" '
  { sub(/#.*/, "") }
  $1 == "spec" || $1 == "group" || $1 == "k" { print > (work "/spec.txt"); next }
  $1 == "criterion" || $1 == "weights" { print > (work "/input0.txt"); next }
  $1 == "participant" { ++n; print > (work "/input" n ".txt"); next }
  END { print n+0 }
' "${instance}")"

if [[ "${n}" -lt 2 ]]; then
  echo "run_local.sh: instance has ${n} participant line(s); need >= 2" >&2
  exit 1
fi
echo "parties ${n}" >> "${work}/spec.txt"

peers=""
for ((i = 0; i <= n; ++i)); do
  peers="${peers}${peers:+,}${i}=127.0.0.1:$((base_port + i))"
done

echo "run_local.sh: launching $((n + 1)) processes on 127.0.0.1:${base_port}..$((base_port + n))" >&2
pids=()
for ((i = 1; i <= n; ++i)); do
  "${bin}" --party-id "${i}" --listen "127.0.0.1:$((base_port + i))" \
      --peers "${peers}" --spec "${work}/spec.txt" \
      --input "${work}/input${i}.txt" \
      "${seed_args[@]+"${seed_args[@]}"}" "${fw_args[@]+"${fw_args[@]}"}" \
      > "${work}/party${i}.log" 2>&1 &
  pids+=($!)
done

status=0
"${bin}" --party-id 0 --listen "127.0.0.1:${base_port}" \
    --peers "${peers}" --spec "${work}/spec.txt" \
    --input "${work}/input0.txt" \
    "${seed_args[@]+"${seed_args[@]}"}" "${fw_args[@]+"${fw_args[@]}"}" \
    > "${work}/party0.log" 2>&1 || status=$?

for ((i = 1; i <= n; ++i)); do
  rc=0
  wait "${pids[i - 1]}" || rc=$?
  if [[ "${rc}" -ne 0 && "${status}" -eq 0 ]]; then status="${rc}"; fi
  echo "${rc}" > "${work}/party${i}.exit"
done
echo "${status}" > "${work}/party0.exit"

if [[ "${status}" -ne 0 ]]; then
  cat "${work}/party0.log"
  echo "run_local.sh: a party failed (exit ${status}); logs kept in ${work}/" >&2
  exit "${status}"
fi
# The initiator's header, then the ranking in ppgr_cli's format — each
# participant's own rank, marked when the initiator received its
# submission — then the rest of the initiator's report.
head -n 2 "${work}/party0.log"
for ((i = 1; i <= n; ++i)); do
  rank="$(sed -n "s/^party ${i}: rank \([0-9][0-9]*\)\$/\1/p" "${work}/party${i}.log")"
  mark=""
  if grep -Eq "^submission: participant +${i} claims" "${work}/party0.log"; then
    mark="   -> submitted to initiator"
  fi
  printf 'participant %2d: rank %2d%s\n' "${i}" "${rank}" "${mark}"
done
echo
tail -n +3 "${work}/party0.log"
if [[ "${keep}" -eq 1 ]]; then
  echo "run_local.sh: artifacts kept in ${work}/" >&2
else
  rm -rf "${work}"
fi
