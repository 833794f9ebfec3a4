"""One measured child process: import the CLI, run a list of invocations.

Usage: python3 child.py SPEC.json

SPEC holds ``invocations`` (argv lists for ``hsde``), ``result`` (where to
write timings), and optionally ``spans`` (trace the run and save spans
there). With no invocations the child only imports the CLI, which is how the
parent samples set-up time. The parent compares the ``ready`` stamp, taken on
the shared monotonic clock right after ``hsde.cli`` is imported, with the
moment it started the process.

Right after the import the child times a burst of calibration kernels
(``calib.py``), which gives the host's speed during set-up, and it times
another burst after the workload. An untraced run also times one kernel
every 0.1 s while the workload runs, and reports the time those probes took
so the parent can subtract it; a traced run has no probes, as their time
would land in whichever span was open.
"""

import sys
import time

import hsde.cli  # set-up ends here

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import click  # noqa: E402

import calib  # noqa: E402  next to this script, so on sys.path[0]

SETUP_KERNEL_S = calib.burst()


def invoke(argv: list) -> int:
    """Run one CLI command in this process; its exit code."""
    try:
        hsde.cli.main.main(args=argv, prog_name="hsde", standalone_mode=False)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else int(err.code is not None)
    except click.ClickException as err:
        err.show()
        return err.exit_code
    except Exception:  # reported as a failed invocation, run continues
        traceback.print_exc()
        return 1
    return 0


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    run = invoke
    rec = None
    probe = calib.Probe()
    if spec.get("spans"):
        import tracer  # next to this script, so on sys.path[0]

        rec = tracer.Recorder()
        tracer.install(rec)
        run = rec.wrap(invoke, "cli")

    codes = []
    if rec is None and spec["invocations"]:
        probe.start()
    t0 = time.perf_counter()
    for argv in spec["invocations"]:
        codes.append(run(argv))
    wall = time.perf_counter() - t0
    probe.stop()
    end_kernel_s = calib.burst()

    if rec is not None:
        rec.save(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump({"ready": READY, "wall_s": wall, "codes": codes,
                   "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "setup_kernel_s": SETUP_KERNEL_S, "end_kernel_s": end_kernel_s,
                   "probe_kernel_s": probe.samples,
                   "probe_busy_s": probe.busy_s},
                  fh)


if __name__ == "__main__":
    main()
