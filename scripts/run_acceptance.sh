#!/bin/sh
# Run the acceptance criteria with one printed pass/fail line each, importing
# the package from src/ of this checkout, so no install is needed.
cd "$(dirname "$0")/.." || exit 1
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
exec python3 -m pytest tests/test_acceptance.py -v -s "$@"
