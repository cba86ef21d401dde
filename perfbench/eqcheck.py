"""Library operation of the kstep-order2 workload.

Calls markovjsr.radius_equivalence_check on an order-k instance file and
prints its outcome as one JSON object.

usage: python3 eqcheck.py INSTANCE N_MAX
"""

import json
import sys

from markovjsr import radius_equivalence_check
from markovjsr.instancefile import load_instance


def main() -> None:
    path, n_max = sys.argv[1], int(sys.argv[2])
    instance = load_instance(path)
    report = radius_equivalence_check(instance.kstep, instance.matrices, n_max)
    rows = [
        {
            "recoded_length": row.recoded_length,
            "original_length": row.original_length,
            "recoded_upper": row.recoded_upper,
            "direct_upper": row.direct_upper,
            "recoded_lower": row.recoded_lower,
            "direct_lower": row.direct_lower,
        }
        for row in report.rows
    ]
    print(json.dumps({"agrees": report.agrees, "rows": rows}))


if __name__ == "__main__":
    main()
