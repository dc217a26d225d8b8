"""Pieces of the benchmark that are plain Python: the tail-percentile
rule, order statistics, /proc resource probes, and the records file
the load tool writes. run.py drives them; test_benchlib.py tests them.
"""

import array
import os

# Percentiles a workload's tail may report, highest first.
PERCENTILE_LADDER = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

# Request kinds, in the order of perfbench/tool/perfbench.hh ReqKind.
KINDS = ("synth", "yield", "yield_stream", "iss_sweep", "classify_stream")


def _rank(p, n):
    """Nearest rank of percentile p among n samples, ceil(p% of n), in
    integers (p has at most two decimals) so 99.9% of 10000 is 9990."""
    return max(1, -(-round(p * 100) * n // 10000))


def tail_percentile(n):
    """The highest ladder percentile with at least 10 of `n` samples
    strictly beyond it, or None when even the median has fewer."""
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    s = sorted(values)
    return s[_rank(p, len(s)) - 1]


def chunked_tail(values, chunk):
    """Tail latency of a run: split the samples, in request order, into
    consecutive chunks of `chunk` (a short last chunk is dropped when a
    full one exists), take each chunk's tail_percentile(chunk), and
    report the median over chunks. One chunk gives the plain rule;
    many make the tail robust to a single stall."""
    if len(values) < chunk:
        p = tail_percentile(len(values))
        return percentile(values, p) if p is not None else max(values)
    p = tail_percentile(chunk)
    tails = [percentile(values[i:i + chunk], p)
             for i in range(0, len(values) - chunk + 1, chunk)]
    return median(tails)


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of an empty sample")
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def proc_hwm_mb(pid):
    """Peak resident set (VmHWM) of `pid` in MiB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM for pid %d" % pid)


def proc_fds(pid):
    """Open file descriptors of `pid`."""
    return len(os.listdir("/proc/%d/fd" % pid))


def proc_sample(pids):
    """Resources of a set of serving processes: summed VmHWM (MiB) and
    summed open fds."""
    return {
        "rss_mb": sum(proc_hwm_mb(pid) for pid in pids),
        "fds": sum(proc_fds(pid) for pid in pids),
    }


def read_records(path):
    """Per-request rows the tool writes: (latency_us, first_partial_us
    or -1, kind, phase, completion_us from the phase start, ok) as
    native-endian doubles; ok is 1 when an "ok": true reply arrived."""
    data = array.array("d")
    with open(path, "rb") as f:
        data.frombytes(f.read())
    return [(data[i], data[i + 1], KINDS[int(data[i + 2])],
             int(data[i + 3]), data[i + 4], data[i + 5] == 1)
            for i in range(0, len(data), 6)]
