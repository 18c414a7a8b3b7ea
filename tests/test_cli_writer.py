"""``cli.py`` writes a command's output from one place: ``_emit`` in ``main``.

Each ``_cmd_*`` handler returns its text, so the UTF-8 rule, ``--out`` and a
closed stdout are handled once for every subcommand.  A ``print`` in
``cli.py`` is for stderr only.
"""

import ast
from pathlib import Path

import citenet.cli


def _writes(source: str) -> list[tuple[str | None, str]]:
    """(enclosing function, call) of each ``_emit`` call and of each ``print``
    that does not pass ``file=sys.stderr``."""
    found = []

    def to_stderr(call):
        return any(
            k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in call.keywords
        )

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "_emit" or (node.func.id == "print" and not to_stderr(node)):
                found.append((function, node.func.id))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def _source() -> str:
    return Path(citenet.cli.__file__).read_text(encoding="utf-8")


def test_the_guard_sees_a_handler_that_prints_to_stdout():
    source = (
        "def _cmd_x(args):\n"
        "    print('warning', file=sys.stderr)\n"
        "    print('wrote x')\n"
        "    print('wrote y', file=sys.stdout)\n"
        "    return 'text'\n"
    )
    assert _writes(source) == [("_cmd_x", "print"), ("_cmd_x", "print")]


def test_main_alone_writes_the_output():
    assert _writes(_source()) == [("main", "_emit")]


def test_every_handler_returns_its_text():
    handlers = [
        node for node in ast.walk(ast.parse(_source()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(handlers) == 8
    assert {h.name: ast.unparse(h.returns) for h in handlers} == {h.name: "str" for h in handlers}
