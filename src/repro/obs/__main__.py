"""``python -m repro.obs`` — validate or render a metrics snapshot.

``--validate PATH`` is CI's schema check of a ``repro-fib serve
--metrics-json`` artifact; ``--prometheus PATH`` prints its Prometheus
text rendering.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from repro.obs import SCHEMA, Registry, to_prometheus, validate_metrics_payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="validate or render a repro.obs metrics snapshot",
    )
    parser.add_argument("--validate", metavar="PATH",
                        help="check a metrics JSON file against the schema")
    parser.add_argument("--prometheus", metavar="PATH",
                        help="render a metrics JSON file as Prometheus text")
    args = parser.parse_args(argv)
    if not args.validate and not args.prometheus:
        parser.error("one of --validate / --prometheus is required")
    status = 0
    if args.validate:
        payload = json.loads(Path(args.validate).read_text())
        errors = validate_metrics_payload(payload)
        for error in errors:
            print(f"invalid: {error}")
        if errors:
            status = 1
        else:
            print(f"{args.validate}: valid {SCHEMA} snapshot")
    if args.prometheus and not status:
        payload = json.loads(Path(args.prometheus).read_text())
        if "rows" in payload:
            merged = Registry()
            for row in payload["rows"]:
                merged.merge(row.get("snapshot", {}))
            payload = merged.snapshot()
        print(to_prometheus(payload), end="")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
