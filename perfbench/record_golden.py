"""Record the result digests the benchmark checks outputs against.

Run from the root of a checkout after an intentional model change::

    python3 perfbench/record_golden.py

It computes, with ``repro.bench.cells.execute_cell``:

- every ``paper_quick`` and ``dse_slice`` cell at the default seed;
- every cell of every query in the ``advise_mixed`` pool.
"""

import json
import sys

from harness import DEFAULT_SEED, GOLDEN, digest, import_program, pool_key


def main() -> int:
    import_program()
    import advise_mixed
    import dse_slice
    import paper_quick
    from repro.bench.cells import execute_cell
    from repro.serve.query import normalize_query

    golden = {"paper_quick": {}, "dse_slice": {}, "advise_pool": {}}
    for name, cells in (("paper_quick", paper_quick.slice_cells(DEFAULT_SEED)),
                        ("dse_slice", dse_slice.slice_cells(DEFAULT_SEED))):
        for cell in cells:
            golden[name][cell.cell_id] = digest(execute_cell(cell))
        print(f"{name}: {len(cells)} cells", file=sys.stderr)
    pool = golden["advise_pool"]
    for query in advise_mixed.query_pool():
        for cell in normalize_query(query).cells():
            key = pool_key(cell.cell_id)
            if key not in pool:
                pool[key] = digest(execute_cell(cell))
    print(f"advise_pool: {len(pool)} cells", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
