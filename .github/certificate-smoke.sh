#!/bin/sh
# Certificate smoke checks for CI, run from the repository root:
#   sh .github/certificate-smoke.sh
set -eu

echo "Construct and verify a 40x40 certificate"
PYTHONPATH=src timeout 20 python -m intertwine.cli construct 40 40 2 --q 5 --out /tmp/c40.json
PYTHONPATH=src timeout 60 python -m intertwine.cli verify /tmp/c40.json

echo "Construct and verify a 50x50 certificate"
# verify takes about 3 s on 2 vCPUs because the oracle numbers its unknowns
# last block first; numbered first block first it takes about 25 s, so the
# timeout fails this step if that order regresses
PYTHONPATH=src timeout 20 python -m intertwine.cli construct 50 50 2 --q 5 --out /tmp/c50.json
PYTHONPATH=src timeout 20 python -m intertwine.cli verify --strict /tmp/c50.json

echo "Construct and verify a 14x14 certificate over GF(9)"
# GF(9) has no byte rows, so the distance check runs the list loops on a code
# of 9^7 - 1 nonzero codewords, within the default budget; --strict exits 0
# only if the check ran and was not skipped
PYTHONPATH=src timeout 20 python -m intertwine.cli construct 14 14 7 --q 9 --out /tmp/c14.json
PYTHONPATH=src timeout 20 python -m intertwine.cli verify --strict /tmp/c14.json

echo "Construct and verify a 32x32 certificate over GF(1024)"
# GF(1024) has two byte planes per row, so this runs the oracle's Hessenberg
# solver, the elimination, the products and the distance scan on them; the
# list loops took about 1.2 s for verify on 2 vCPUs
PYTHONPATH=src timeout 20 python -m intertwine.cli construct 32 32 2 --q 1024 --out /tmp/c32.json
PYTHONPATH=src timeout 20 python -m intertwine.cli verify --strict /tmp/c32.json

echo "Verify a transposed 30x12 certificate over GF(25)"
# GF(25) has no byte rows, so this runs the list loops and Zech tables;
# the distance scan is skipped for budget, which --strict reports as 3
PYTHONPATH=src timeout 20 python -m intertwine.cli extremal 30 12 --q 25 --out /tmp/e30.json
PYTHONPATH=src timeout 60 python -m intertwine.cli verify /tmp/e30.json --out /tmp/e30-report.json
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["passed"] is not True)' /tmp/e30-report.json
rc=0
PYTHONPATH=src timeout 60 python -m intertwine.cli verify --strict /tmp/e30.json > /dev/null || rc=$?
test "$rc" -eq 3
