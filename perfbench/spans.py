"""Timers and span recording that the benchmark installs around onebitlink's functions.

Both recorders replace a module attribute with a wrapper, so every caller that
looks the function up through its module (``pipeline.run_link`` from the
optimizer and the CLI, ``dsp.upconvert`` from the pipeline) goes through the
wrapper. The optimizer's pool forks its workers, so a wrapper installed before
a sweep starts runs in the workers as well. A worker cannot hand its records
back through the pool, so it appends them to a file named after its pid in
the recorder's directory, one ``os.write`` per finished point; the benchmark
process keeps its own records in memory. ``collect`` merges both.
"""

import functools
import glob
import json
import os
import time
import warnings


class _Patches:
    """Module attributes replaced by wrappers, restored by `restore`."""

    def __init__(self):
        self._undo = []

    def replace(self, module, attr, wrapper_factory):
        original = getattr(module, attr)
        setattr(module, attr, functools.wraps(original)(wrapper_factory(original)))
        self._undo.append((module, attr, original))

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def _process_tag(pid):
    # Pids of short-lived pool workers can be reused within one run; the
    # start time keeps the tag unique.
    return f"{pid}.{time.perf_counter_ns()}"


class _PerProcessLog:
    """Records of the benchmark process in memory; forked workers append to <dir>/<pid>.jsonl."""

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.owner = os.getpid()
        self.pid = self.owner
        self.proc = _process_tag(self.pid)
        self.records = []

    def enter_process(self):
        """Drop state a forked worker inherited from the benchmark process; True in a worker."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.proc = _process_tag(pid)
            self.records = []
            self.on_fork()
        return pid != self.owner

    def on_fork(self):
        pass

    def flush(self):
        if self.pid == self.owner or not self.records:
            return
        text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in self.records)
        self.records = []
        fd = os.open(os.path.join(self.directory, f"{self.pid}.jsonl"),
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, text.encode())
        finally:
            os.close(fd)

    def collect(self):
        """All records so far, the workers' files included; the files are consumed."""
        out = list(self.records)
        self.records = []
        for path in sorted(glob.glob(os.path.join(self.directory, "*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
            os.remove(path)
        return out


class PointTimer(_PerProcessLog):
    """One timer around `pipeline.run_link`: wall time, point and result of each call.

    `describe(*args)` turns the call's arguments into a JSON-able description
    of the point, so a point a worker evaluated can be found in the CLI's
    output and evaluated again in the benchmark process.
    """

    def __init__(self, pipeline_module, directory, describe):
        super().__init__(directory)
        self._patches = _Patches()
        self._patches.replace(pipeline_module, "run_link",
                              lambda run_link: self._timed(run_link, describe))

    def _timed(self, run_link, describe):
        def timed(*args):
            in_worker = self.enter_process()
            t0 = time.perf_counter()
            result = run_link(*args)
            t1 = time.perf_counter()
            self.records.append({"t0": t0, "t1": t1, "proc": self.proc,
                                 "point": describe(*args), "metrics": metrics_tuple(result)})
            if in_worker:
                self.flush()
            return result
        return timed

    def restore(self):
        self._patches.restore()


def metrics_tuple(m):
    return [m.mi, m.rate_r, m.b_pa, m.p_pa, m.p_t, m.eta_p, m.eta_b, m.fom, m.fom_normalized]


class SpanRecorder(_PerProcessLog):
    """Spans (name, start, end, id, parent) around public functions of each module.

    A forked worker writes out its spans whenever a `flush_on` span ends, that
    is once per point; the benchmark process keeps its spans until `collect`.
    A wrapper given `count_warning` also counts warnings of that class raised
    inside the call, stores the count on its span, and keeps them off stderr.
    """

    def __init__(self, directory, flush_on):
        super().__init__(directory)
        self.flush_on = flush_on
        self.stack = []
        self.next_id = 0
        self._patches = _Patches()

    def on_fork(self):
        self.stack = []

    def wrap(self, module, attr, name, count_warning=None):
        self._patches.replace(module, attr,
                              lambda fn: self._span(fn, name, count_warning))

    def _span(self, fn, name, count_warning):
        def traced(*args, **kwargs):
            in_worker = self.enter_process()
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(span_id)
            caught = []
            t0 = time.perf_counter()
            try:
                if count_warning is None:
                    return fn(*args, **kwargs)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", count_warning)
                    return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                record = {"name": name, "t0": t0, "t1": t1, "id": span_id,
                          "parent": parent, "proc": self.proc}
                if count_warning is not None:
                    record["warnings"] = sum(
                        issubclass(w.category, count_warning) for w in caught)
                self.records.append(record)
                if in_worker and name == self.flush_on:
                    self.flush()
        return traced

    def restore(self):
        self._patches.restore()


def self_times(spans):
    """Map span (proc, id) -> duration minus the durations of its direct children."""
    own = {(s["proc"], s["id"]): s["t1"] - s["t0"] for s in spans}
    for s in spans:
        key = (s["proc"], s["parent"])
        if key in own:
            own[key] -= s["t1"] - s["t0"]
    return own
