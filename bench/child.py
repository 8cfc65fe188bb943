"""Fresh-interpreter probe for set-up time and peak memory.

Usage: ``python3 child.py SRC_DIR MODE ARGV_JSON``, where MODE is ``setup``
(stop once the first problem is built) or ``pass`` (run every argv in
ARGV_JSON, a list of CLI argv lists, then report peak RSS). Prints one JSON
line: ``built_at`` is CLOCK_MONOTONIC when the first problem was built,
``maxrss_kb`` the process's peak resident set size and ``outputs`` the
CLI's exit code and the SHA-256 of its CSV per argv run to completion.
"""
import hashlib
import json
import sys
import time


class _FirstBuild(Exception):
    """Raised out of the CLI once the first problem exists (setup mode)."""


def main() -> int:
    src, mode, argvs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    import io
    import resource
    from contextlib import redirect_stdout

    from qbounds import cli, models

    from spans import BUILDERS, rebind

    built_at = []

    def hook(fn):
        def first_build(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not built_at:
                built_at.append(time.clock_gettime(time.CLOCK_MONOTONIC))
                if mode == "setup":
                    raise _FirstBuild
            return result
        return first_build

    builders = [getattr(models, name.split(".", 1)[1]) for name in BUILDERS]
    rebind({fn: hook(fn) for fn in builders})
    outputs = []
    try:
        for argv in argvs:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(argv)
            outputs.append((code, hashlib.sha256(out.getvalue().encode()).hexdigest()))
    except _FirstBuild:
        pass
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"built_at": built_at[0] if built_at else None,
                      "maxrss_kb": maxrss, "outputs": outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
