"""Run one percolab CLI command in this fresh interpreter, as a user would.

Usage: python3 child.py SRC_DIR plain|trace -- PERCOLAB_ARGS...

Stdout is the command's own output, untouched, and the exit code is the
command's.  When the command ends, one line ``PERFBENCH {json}`` goes to
stderr with:

- ``setup_end``: ``time.monotonic()`` when ``build_parser`` returned inside
  ``main``, so that interpreter start, ``import percolab.cli`` and the parser
  build count as set-up (CLOCK_MONOTONIC is shared by every process, so the
  parent subtracts its own spawn time);
- ``maxrss_kb``: this process's peak resident set size;
- in ``trace`` mode, the span summary of ``spans.Recorder``.
"""

import sys
import time

REPORT_PREFIX = "PERFBENCH "


def main() -> None:
    src, mode, sep = sys.argv[1:4]
    if sep != "--" or mode not in ("plain", "trace"):
        sys.exit("usage: child.py SRC_DIR plain|trace -- PERCOLAB_ARGS...")
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    import percolab.cli as cli

    if not cli.__file__.startswith(src):
        sys.exit(f"child.py: imported percolab from {cli.__file__}, not from {src}")
    report = {"setup_end": None}
    build_parser = cli.build_parser

    def timed_build_parser():
        parser = build_parser()
        report["setup_end"] = time.monotonic()
        return parser

    cli.build_parser = timed_build_parser

    recorder = None
    if mode == "trace":
        import spans
        from percolab.measures import _pushforward_kernel

        # Warm lru_caches would time a different program than a user runs.
        cached = _pushforward_kernel.cache_info().currsize
        if cached != 0:
            sys.exit(f"child.py: pushforward kernel cache holds {cached} entries on entry")
        recorder = spans.install()

    try:
        sys.exit(cli.main(argv))
    finally:
        import json
        import resource

        sys.stdout.flush()
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            report.update(recorder.summary())
        sys.stderr.write("\n" + REPORT_PREFIX + json.dumps(report) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    main()
