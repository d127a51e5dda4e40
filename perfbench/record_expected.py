"""Record the acceptance-mix verdict kinds that benchmark runs check against.

    python3 perfbench/record_expected.py

The seed only renames the mix's symbols and numeric variables in order and
reorders its queries, so the verdict kinds do not depend on it; the script
confirms that on two seeds and writes one list keyed by query id.
"""

import json
import sys

import run

SEEDS = (0, 1)


def main():
    plqo = run.import_program()
    import workloads

    kinds = {}
    for seed in SEEDS:
        for q in workloads.acceptance_mix(seed):
            kind = run.kind_of(plqo, run.execute(plqo, q))
            if kinds.setdefault(q.id, kind) != kind:
                sys.exit(f"{q.id}: {kinds[q.id]} on seed {SEEDS[0]}, {kind} on seed {seed}")
    doc = {"corpus_seed": workloads.MIX_CORPUS_SEED, "kinds": dict(sorted(kinds.items()))}
    (run.HERE / "expected_mix.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
