"""The README stays true to the source: its rule table lists exactly the
rules a scenario can fail, and every dotted name it cites exists."""

import ast
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import nullsim
from nullsim import scenario

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _raised_rules() -> set[str]:
    """The literal first argument of every ``ScenarioError(...)`` and
    ``TreeShapeError(...)`` in ``src/``, plus the ``invalid_<section>``
    rules ``scenario._build`` can raise."""
    rules = set()
    for path in (ROOT / "src" / "nullsim").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("ScenarioError", "TreeShapeError")
                and isinstance(node.args[0], ast.Constant)
            ):
                rules.add(node.args[0].value)
    # _build names the plain error a section's class raises invalid_<section>;
    # a class that raises only ScenarioErrors names its own rules
    for name, (_, cls) in scenario._SECTIONS.items():
        source = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        raised = {
            ast.unparse(node.exc.func)
            for node in ast.walk(source)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        }
        if raised - {"ScenarioError"}:
            rules.add(f"invalid_{name}")
    return rules


def _table_rules() -> list[str]:
    """The rule of every row of the README's scenario rule table."""
    section = README.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [re.match(r"\| `(\w+)` \|", row).group(1) for row in rows]


def test_the_rule_table_lists_every_rule_the_source_raises():
    table = _table_rules()
    assert len(table) == len(set(table)), "a rule has two rows"
    assert set(table) == _raised_rules()


def _nullsim_heads() -> dict[str, object]:
    """Every nullsim module and every class a nullsim module defines, by name."""
    heads: dict[str, object] = {"nullsim": nullsim}
    for info in pkgutil.iter_modules(nullsim.__path__):
        module = importlib.import_module(f"nullsim.{info.name}")
        heads[info.name] = module
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                heads[name] = obj
    return heads


def test_every_dotted_name_in_the_readme_exists():
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    heads = _nullsim_heads()
    absent = object()
    checked, missing = 0, []
    for span in re.findall(r"`([^`\n]+)`", prose):
        name = span.removesuffix("()")
        if not re.fullmatch(r"\w+(\.\w+)+", name):
            continue
        head, *rest = name.split(".")
        if head not in heads:
            continue
        obj = heads[head]
        for attr in rest:
            # a dataclass field without a default is no class attribute
            fields = getattr(obj, "__dataclass_fields__", {})
            obj = getattr(obj, attr, fields[attr] if attr in fields else absent)
        checked += 1
        if obj is absent:
            missing.append(name)
    assert checked, "the README cites no nullsim name"
    assert missing == []
