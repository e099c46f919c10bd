"""Shared test helpers: deterministic instance streams, and the CLI in a capped child."""

import os
import subprocess
import sys

import pytest

from dpnets.verify import capped_instance

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def instance_stream(base_seed, count, p_star_lo, p_star_hi, max_items):
    """Deterministic list of instances covering the p_star range round-robin."""
    span = p_star_hi - p_star_lo + 1
    return [
        capped_instance(base_seed + k, p_star_lo + k % span, max_items)
        for k in range(count)
    ]


@pytest.fixture
def capped_cli():
    """Run the CLI on a list of arguments in a child process capped at 1 GB of
    address space and 60 s; return the completed process.  Were a size guard
    gone, an oversized build would fail its first large allocation instead of
    taking the machine's memory, and a guard that loops fails its test
    instead of stalling the suite."""

    def run(args):
        limit = 2**30
        code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
                f"from dpnets.cli import main; sys.exit(main({list(args)!r}))")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)

    return run
