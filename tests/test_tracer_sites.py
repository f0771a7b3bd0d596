"""The benchmark tracer wraps package functions by module attribute name
(``perfbench/tracer.py`` ``SITES`` and ``COUNTED``), and its probes read
some of their arguments and results, so renaming or moving one of them, or
changing what a probe reads, breaks ``perfbench/run.py --trace 1``.  These
tests catch both here, and that a module imports nothing it does not use
unless the benchmark reaches it through that module."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from fedceo import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,attr", sorted({site[:2] for site in
                                                tracer.SITES + tracer.COUNTED}))
def test_every_traced_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def unused_imports(tree):
    """Names that a module's top-level imports bind and its code never loads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - loaded


def benchmark_reached():
    """(module, name) pairs the benchmark looks up in the package: the
    tracer's sites and every ``from fedceo.<m> import name`` under perfbench/."""
    reached = {site[:2] for site in tracer.SITES + tracer.COUNTED}
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fedceo."):
                reached.update((node.module, alias.name) for alias in node.names)
    return reached


def test_every_unused_import_is_one_the_benchmark_reaches():
    # When the benchmark stops reaching a name, its import goes with it.
    unused = {(f"fedceo.{path.stem}", name)
              for path in (ROOT / "src" / "fedceo").glob("*.py")
              for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert unused <= benchmark_reached(), sorted(unused - benchmark_reached())


SESSION_CONFIG = """\
algorithm = fedceo
n_total = 6
k_selected = 3
rounds = 4
interval = 2
batch = 16
model.kind = mlp
model.hidden = 8
data.source = file
data.path = {path}
partition.mode = dirichlet
partition.alpha = 0.5
"""


def test_a_traced_cli_session_runs_end_to_end(tmp_path, capsys):
    # The probes read the wrapped calls' arguments and results, so a change
    # to them breaks a traced benchmark run even when every name resolves.
    sites = [(importlib.import_module(m), a) for m, a, *_ in tracer.SITES + tracer.COUNTED]
    originals = [getattr(module, attr) for module, attr in sites]
    data, cfg = tmp_path / "blobs.ds", tmp_path / "run.cfg"
    cfg.write_text(SESSION_CONFIG.format(path=data))
    run_dir = tmp_path / "run"
    argvs = [
        ["gen-data", "--out", str(data), "--classes", "3", "--dim", "4", "--samples", "150"],
        ["run", "--config", str(cfg), "--out", str(run_dir), "--threads", "1"],
        ["analyze", "--run", str(run_dir)],
        ["sweep", "--config", str(cfg), "--axis", "dp.sigma", "--values", "0.5,2",
         "--seeds", "0,1", "--out", str(tmp_path / "sweep"), "--threads", "2"],
    ]
    tr = tracer.Tracer()
    with tr.installed():
        codes = [cli.main(argv) for argv in argvs]
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    assert [getattr(module, attr) for module, attr in sites] == originals
    metrics = tracer.layer_metrics(tr.spans, tr.counts())
    assert metrics["protocol.rounds"][0] == 4 * 5  # the run and four sweep cells
    # The partition probe reads each client's n; a partition the run stops
    # calling would read as 0 here.
    assert metrics["data.partition.s"][0] > 0
    assert metrics["data.client_size.min"][0] >= 1
    names = {span.name for span in tr.spans}
    assert {"tensor.truncated_tsvd", "dp.clip_update", "protocol.write_run_outputs"} <= names
