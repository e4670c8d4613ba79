"""The four workloads. Each gives, for step kind k, the tree pipeline and
the naive pipeline of one step (see naive.py for the protocol).

Import after checkout.import_library(): pipelines imports tensortree.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys

import gen
import naive
import pipelines
from checkout import ROOT, WORK, cli_env

CLI_TIMEOUT_S = 60


class BatchWorkload:
    """many-small and few-large: one batch, the same pipeline every step."""

    kinds = 1
    count_replays = False
    probe_each_step = False
    rss_of = resource.RUSAGE_SELF  # whose ru_maxrss is peak_rss_mb

    def __init__(self, name, seed):
        self.inputs = gen.many_small(seed) if name == "many-small" else gen.few_large(seed)
        self.side = pipelines.BatchSide(self.inputs)

    def ops(self, k, calls, replay):
        return pipelines.batch_ops(calls, self.inputs, self.side), naive.batch_ops(self.inputs)

    def close(self):
        pass


class EditWorkload:
    """constrained-edit: one base tree, a pool of seeded edit streams."""

    count_replays = False
    probe_each_step = False
    rss_of = resource.RUSAGE_SELF

    def __init__(self, name, seed):
        self.inputs = gen.constrained_edit(seed)
        self.side = pipelines.EditSide(self.inputs)
        self.kinds = len(self.inputs.streams)

    def ops(self, k, calls, replay):
        stream = self.inputs.streams[k]
        return (
            pipelines.edit_ops(calls, self.side, k, stream, replay),
            naive.edit_ops(self.inputs, stream),
        )

    def close(self):
        pass


class CliWorkload:
    """cli-docs: one CLI subprocess per step, cycling through the commands."""

    # The CLI's parse, op and serialize happen in a subprocess, so the only
    # spans that show them are those of the in-process replay.
    count_replays = True
    probe_each_step = True
    # The library runs in the CLI processes, the only children of an
    # untraced run; the worker itself holds only the benchmark's documents.
    rss_of = resource.RUSAGE_CHILDREN

    def __init__(self, name, seed):
        self.commands = gen.CLI_COMMANDS
        self.kinds = len(self.commands)
        self.texts = gen.cli_docs(seed).documents()
        self.dir = WORK / f"docs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for fname, text in self.texts.items():
            (self.dir / fname).write_text(text, encoding="utf-8")
        d = lambda f: str(self.dir / f)
        self.argv = {
            "show": ["show", d("a.ttj")],
            "neg": ["apply", "--fn", "neg", d("a.ttj")],
            "add": ["apply", "--fn", "add", "--policy", "outer", "--default", "0", d("a.ttj"), d("b.ttj")],
            "validate": ["validate", "--constraints", d("spec.ttc"), d("a.ttj")],
            "pad": ["pad", "--fill", "0", d("r0.ttj"), d("r1.ttj")],
        }
        self.env = cli_env()

    def close(self):
        for f in self.dir.iterdir():
            f.unlink()
        self.dir.rmdir()

    def run_cli(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "tensortree.cli", *argv], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    def ops(self, k, calls, replay):
        cmd = self.commands[k]

        def tree_ops():
            yield cmd, lambda: self.run_cli(self.argv[cmd]), _cli_view
            if replay is not None:
                replay(cmd, lambda: self.replay(calls, cmd))

        def naive_ops():
            yield cmd, lambda: naive.cli_command(self.texts, cmd), lambda r: r[0]

        return tree_ops(), naive_ops()

    def replay(self, c, cmd):
        """The command's read, parse, op and serialize, in this process."""
        parse = c["io_formats.parse_tree"]
        read = lambda f: (self.dir / f).read_text(encoding="utf-8")
        if cmd == "show":
            c["io_formats.serialize_tree"](parse(read("a.ttj")))
        elif cmd == "neg":
            c["io_formats.serialize_tree"](c["lift.lift_unary.neg"](parse(read("a.ttj"))))
        elif cmd == "add":
            out = c["lift.lift_multi.add_outer"](parse(read("a.ttj")), parse(read("b.ttj")))
            c["io_formats.serialize_tree"](out)
        elif cmd == "validate":
            spec = c["io_formats.parse_constraint_spec"](read("spec.ttc"))
            c["constraints.validate_full"](c["constraints.with_constraints"](parse(read("a.ttj")), spec))
        else:
            group = c["padding.group_pad"]([parse(read("r0.ttj")), parse(read("r1.ttj"))], fill=0.0)
            c["io_formats.serialize_padded_group"](group)


def _cli_view(proc):
    """A CLI step's output in the naive pipeline's form."""
    if proc.returncode != 0:
        return ("exit", proc.returncode, proc.stderr[-500:])
    if proc.stdout.strip() == "ok":
        return "ok"
    return naive.parse_document(proc.stdout)


WORKLOADS = {
    "many-small": BatchWorkload,
    "few-large": BatchWorkload,
    "constrained-edit": EditWorkload,
    "cli-docs": CliWorkload,
}
