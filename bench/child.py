"""The processes that run coxforge for the benchmark.

    python3 bench/child.py setup WORKLOAD SEED
        import coxforge, generate the workload's inputs and build its
        graphs and gradings, then exit: what a run does before its
        first operation.
    python3 bench/child.py cli STATS ARG...
        run `coxforge ARG...` through coxforge.cli.main with every
        traced function wrapped, and write the span summary to STATS.
    python3 bench/child.py sweep CELLS OUT SECONDS ROUNDS TRACE
        warm up on the first SWEEP_BATCH cells of each case, then run
        rounds of sweep cells (nef pass, then basic pass) until SECONDS
        have passed, and at least ROUNDS rounds. With TRACE 1, every
        round runs each case's cells untraced and then traced, and the
        spans of all traced runs are summed at the end. Each cell's CPU
        time is taken in batches of SWEEP_BATCH cells, each followed by
        the reference work, and reported in reference seconds. The
        first round's traces, every round's timings and the span
        summary go to OUT as JSON lines.

PYTHONPATH must name the checkout's `src`.
"""

import json
import sys
import time

import inputs
import speed

# sweep cells timed between two reference runs
SWEEP_BATCH = 26


def setup(workload, seed):
    from coxforge.cli import parse_case

    for case in inputs.workload_cases(workload, seed):
        graph = parse_case(case)
        graph.grading()
        graph.intersection_matrix()
    return 0


def traced_cli(stats_path, argv):
    import coxforge.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = coxforge.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"covered_s": tracer.covered(), "metrics": tracer.summary()}, fh)
    return code


def _cell_record(case, cell, done, nef, basic):
    last = nef if basic is None else basic
    steps = list(nef.steps) + (list(basic.steps) if basic is not None else [])
    return {
        "case": case,
        "cell": list(cell),
        "done": done,
        "steps": [[s.kind, list(s.curves), list(s.degree_after)] for s in steps],
        "terminal": list(last.terminal),
        "measures": [str(m) for m in last.measures],
    }


def sweep(cells_path, out_path, seconds, measured_rounds, trace):
    from coxforge import reduction
    from coxforge.cli import parse_case
    from tracing import Tracer

    with open(cells_path, encoding="utf-8") as fh:
        work = [(case, parse_case(case), [tuple(c) for c in cells]) for case, cells in json.load(fh)]
    tracer = Tracer() if trace else None
    for _, graph, cells in work:
        for cell in cells[:SWEEP_BATCH]:
            nef = reduction.reduce_to_nef(cell, graph)
            if nef.terminated:
                reduction.reduce_nef_to_basic(nef.terminal, graph)
    meter = speed.Meter()
    min_rounds = 1 if trace else measured_rounds
    modes = (False, True) if trace else (False,)
    started = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as out:
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - started < seconds:
            times = {traced: [] for traced in modes}
            results = {traced: [] for traced in modes}
            for case, graph, cells in work:
                for traced in modes:
                    if traced:
                        tracer.install()
                    for at in range(0, len(cells), SWEEP_BATCH):
                        batch = []
                        for cell in cells[at:at + SWEEP_BATCH]:
                            t0 = time.thread_time()
                            nef = reduction.reduce_to_nef(cell, graph)
                            basic = reduction.reduce_nef_to_basic(nef.terminal, graph) if nef.terminated else None
                            batch.append(time.thread_time() - t0)
                            last = nef if basic is None else basic
                            done = basic is not None and basic.terminated
                            steps = len(nef.steps) + (len(basic.steps) if basic is not None else 0)
                            results[traced].append([done, steps, list(last.terminal)])
                            if rounds == 0 and not traced:
                                out.write(json.dumps(["cell", _cell_record(case, cell, done, nef, basic)]) + "\n")
                        factor = meter.scale(sum(batch))
                        times[traced] += [t * factor for t in batch]
                    if traced:
                        tracer.uninstall()
            for traced in modes:
                record = {"traced": traced, "times": times[traced], "results": results[traced]}
                out.write(json.dumps(["round", record]) + "\n")
            rounds += 1
        if trace:
            out.write(json.dumps(["trace", {"metrics": tracer.summary()}]) + "\n")
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        return setup(argv[1], int(argv[2]))
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    if mode == "sweep":
        return sweep(argv[1], argv[2], float(argv[3]), int(argv[4]), argv[5] == "1")
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
