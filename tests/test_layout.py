"""Checks on the repository itself: `src/` holds only code the package runs,
only `zzmds.files` knows the encoded directory's format, the data commands
never load `zzmds.analysis`, and the README's library example runs as
written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zzmds"

# Entry points called from outside `src/`.
EXEMPT = {"cli.main"}


def definitions(module, tree):
    """{qualified name: node} of the module's functions and classes and the
    methods of its classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{module}.{node.name}.{item.name}"] = item
    return out


def references(tree, owners):
    """(name, is an attribute, enclosing definitions) for each Name and
    Attribute in the tree; `owners` maps definition nodes to their qualified
    names."""
    out = []

    def visit(node, chain):
        if node in owners:
            chain = chain + (owners[node],)
        if isinstance(node, ast.Name):
            out.append((node.id, False, chain))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, True, chain))
        for child in ast.iter_child_nodes(node):
            visit(child, chain)

    visit(tree, ())
    return out


def unused_definitions():
    """Qualified names of the definitions in `src/zzmds` that nothing in
    `src/` refers to outside their own bodies.  A reference counts only from
    module-level code or from inside definitions that are themselves used,
    repeated to a fixpoint, so a chain of helpers that only an unused
    definition reaches is unused as a whole.  Names are matched by their last
    part, so a method shares its uses with every attribute of its name; a
    function or class is also used by a bare name, a method only through an
    attribute, so a local variable of the same name does not hide it."""
    defs, chains = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = definitions(path.stem, tree)
        defs.update(found)
        for ref, attr, chain in references(tree, {node: name for name, node in found.items()}):
            chains.setdefault((ref, attr), set()).add(chain)

    def uses(name):
        last, method = name.rsplit(".", 1)[1], name.count(".") == 2
        return chains.get((last, True), set()) | (
            set() if method else chains.get((last, False), set()))

    used = set(defs)
    while True:
        now = {name for name in defs
               if name.rsplit(".", 1)[1].startswith("__") or name in EXEMPT
               or any(name not in chain and used.issuperset(chain) for chain in uses(name))}
        if now == used:
            return sorted(set(defs) - used)
        used = now


def test_src_holds_no_unused_definitions():
    assert unused_definitions() == []


# What knows the encoded directory's format: its reads and writes, its
# directories, its manifest and node files, and the payload's digits.
FORMAT_NAMES = {"pread", "makedirs", "read_manifest", "write_manifest", "write_node_file",
                "bytes_to_symbols", "symbols_to_bytes"}


def test_only_files_knows_the_directory_format():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "files":
            tree = ast.parse(path.read_text(), str(path))
            names = [ref for ref, _, _ in references(tree, {})]
            names += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for alias in node.names]
            found |= {f"{path.stem}: {name}" for name in FORMAT_NAMES.intersection(names)}
    assert sorted(found) == []


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_construct_holds_no_mds_verifier():
    tree = ast.parse((SRC / "construct.py").read_text())
    names = set(definitions("construct", tree))
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not {"construct.verify_mds", "construct.MdsReport", "verify_mds",
                "MdsReport"} & names


# Runs zzmds commands in order in one interpreter and prints, after each,
# whether `zzmds.analysis` has been imported.
ANALYSIS_PROBE = """
import os, sys
from zzmds import cli
os.chdir(sys.argv[1])
open("code.cfg", "w").write(sys.argv[2])
open("in.bin", "wb").write(bytes(range(256)) * 8)
for command in sys.argv[3:]:
    argv = command.split()
    if argv[0] in ("rebuild", "decode"):
        os.remove("nodes/node_01")
    code = cli.main(argv)
    print("probe:", command, code, "zzmds.analysis" in sys.modules)
"""

PROVEN = "scheme=cons3\nm=2\n"
UNPROVEN = "scheme=cons3\nm=2\nfamily=explicit\nvectors=00,10,01\n"
ENCODE = "encode in.bin --config code.cfg --out nodes"


@pytest.mark.parametrize("config, commands, loaded", [
    (PROVEN, [ENCODE, "rebuild nodes", "decode nodes", "scrub nodes"], False),
    (PROVEN, ["verify --config code.cfg"], True),
    (UNPROVEN, [ENCODE], True),
], ids=["data-commands", "verify", "unproven-encode"])
def test_analysis_loads_only_where_it_runs(tmp_path, config, commands, loaded):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", ANALYSIS_PROBE, str(tmp_path), config,
                           *commands], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    probes = [line for line in done.stdout.splitlines() if line.startswith("probe: ")]
    assert probes == [f"probe: {command} 0 {loaded}" for command in commands]
