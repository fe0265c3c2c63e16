"""One pass of a workload in a fresh interpreter.

Reads a JSON request on stdin: {"workload", "types", "ops", "trace",
"spans_path"}.  Imports coxchar from the checkout's ``src``, builds
every type, runs the ops as a closed loop with one caller, and writes
one JSON object to stdout: setup time, per-op latencies and outputs,
peak RSS and, when traced, the per-layer totals and counts.

Times are CPU times of this process (set-up) and of its one thread (ops).
The library is single-threaded and does no I/O, so on an idle machine
they equal wall time; on a shared host they leave out the time the host
gives the CPU to someone else, which is most of the run-to-run noise.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    req = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = time.process_time()
    import coxchar

    tracer = None
    if req["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rds = {t: coxchar.build(t) for t in req["types"]}
    setup_s = time.process_time() - started

    run = OPS[req["workload"]]
    latencies, results = [], []
    probe = {"regular": 0, "tested": 0}
    for op_id, op in enumerate(req["ops"]):
        if tracer is not None:
            tracer.op_id = op_id
        t0 = time.thread_time()
        try:
            out = run(coxchar, rds, op)
        except Exception as exc:  # recorded as a failed op; the run goes on
            out = exc
        latencies.append(time.thread_time() - t0)
        results.append(record(out))
        if tracer is not None and req["workload"] != "torsion-census":
            try:
                mismatch = probe_fast_path(coxchar, rds[op[0]], op[1], results[-1], probe)
            except Exception as exc:  # a probe that cannot run is a wrong output
                mismatch = f"probe raised {type(exc).__name__}: {exc}"
            if mismatch:
                results[-1]["probe"] = mismatch

    reply = {
        "setup_s": setup_s,
        "latencies": latencies,
        "results": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        reply["layers"] = tracer.layer_totals()
        reply["missing"] = tracer.missing
        reply["counts"] = {
            "weyl.make_dominant.steps": tracer.make_dominant_steps,
            "oracle.orbit_points": tracer.orbit_points,
            "character.regular": probe["regular"],
            "character.tested": probe["tested"],
        }
        tracer.write(req["spans_path"])
    json.dump(reply, sys.stdout)


def record(out) -> dict:
    """The op's outputs as plain JSON, or the name of what it raised."""
    if isinstance(out, Exception):
        return {"err": type(out).__name__}
    try:
        return out()
    except Exception as exc:  # outputs the benchmark cannot read are wrong
        return {"err": f"unreadable output: {type(exc).__name__}: {exc}"}


def probe_fast_path(lib, rd, lam, res, probe) -> str | None:
    """Call regularity_test and alcove_reduce on the op's weight (the
    fast path does not call them) and compare with the op's outputs.  A
    function the library no longer has is skipped; the tracer reports it
    as missing."""
    regularity_test = getattr(lib, "regularity_test", None)
    alcove_reduce = getattr(getattr(lib, "character", None), "alcove_reduce", None)
    if regularity_test is None:
        return None
    regular, _ = regularity_test(rd, lam)
    probe["tested"] += 1
    probe["regular"] += regular
    if "err" not in res and regular != res["regular"]:
        return f"regularity_test says {regular}, char_at_coxeter says {res['regular']}"
    if not regular or alcove_reduce is None:
        return None
    try:
        _, sign, _ = alcove_reduce(rd, [c + 1 for c in lam])
    except Exception as exc:
        if res.get("err") == type(exc).__name__:
            return None
        return f"alcove_reduce raised {type(exc).__name__}, char_at_coxeter gave {res}"
    if "err" in res:
        return f"alcove_reduce returned, char_at_coxeter raised {res['err']}"
    # the walks may differ in length; their signs may not
    if sign != res["value"]:
        return f"alcove_reduce gave sign {sign}, char_at_coxeter {res}"
    return None


# Each runner does the op's library calls and returns a thunk that turns
# their return values into plain JSON outside the timed region.


def _fast(lib, rds, op):
    rep = lib.char_at_coxeter(rds[op[0]], op[1])
    return lambda: _report(rep)


def _table(lib, rds, op):
    rd = rds[op[0]]
    rep = lib.char_at_coxeter(rd, op[1])
    fs = lib.fs_indicator(rd, op[1])
    return lambda: {**_report(rep), "fs": fs}


def _verify(lib, rds, op):
    rd = rds[op[0]]
    rep = lib.char_at_coxeter(rd, op[1])
    oracle = lib.char_at_coxeter_oracle(rd, op[1])
    return lambda: {**_report(rep), "oracle": oracle}


def _torsion(lib, rds, op):
    rd = rds[op[1]]
    if op[0] == "classify":
        rep = lib.classify_regular_orbits(rd, op[2])
    else:
        _, _, n, trials, seed = op
        rep = lib.duality_report(rd, n, trials=trials, seed=seed)
    return rep.as_dict


def _report(rep) -> dict:
    return {
        "value": rep.value,
        "regular": rep.regular,
        "steps": sum(f.steps or 0 for f in rep.factors),
    }


OPS = {
    "table-small": _table,
    "char-large": _fast,
    "verify-oracle": _verify,
    "torsion-census": _torsion,
}

if __name__ == "__main__":
    main()
