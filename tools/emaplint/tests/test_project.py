"""Unit tests for the pass-1 project model (symbol/call/context tables)."""

from emaplint.engine import SourceFile
from emaplint.project import ProjectModel, module_name_for


def _model(*items: tuple[str, str]) -> ProjectModel:
    return ProjectModel(SourceFile.parse(path, text) for path, text in items)


def test_module_naming():
    assert module_name_for(("src", "repro", "cloud", "plane.py")) == (
        "repro.cloud.plane"
    )
    assert module_name_for(("src", "repro", "obs", "__init__.py")) == (
        "repro.obs"
    )
    assert module_name_for(("tools", "emaplint", "cli.py")) == (
        "emaplint.cli"
    )


def test_attr_types_from_annotation_and_constructor():
    model = _model(
        (
            "src/repro/mod.py",
            "class Core:\n"
            "    pass\n"
            "\n"
            "class Plane:\n"
            "    def __init__(self):\n"
            "        self.core: Core | None = None\n"
            "        self.twin = Core()\n",
        )
    )
    plane = model.classes["repro.mod:Plane"]
    assert plane.attr_types["core"] == "repro.mod:Core"
    assert plane.attr_types["twin"] == "repro.mod:Core"


def test_self_and_attr_method_calls_resolve():
    model = _model(
        (
            "src/repro/mod.py",
            "class Client:\n"
            "    def send(self):\n"
            "        pass\n"
            "\n"
            "class Server:\n"
            "    def __init__(self, client: Client):\n"
            "        self._client = client\n"
            "\n"
            "    def run(self):\n"
            "        self.step()\n"
            "        self._client.send()\n"
            "        client = self._client\n"
            "        client.send()\n"
            "\n"
            "    def step(self):\n"
            "        pass\n",
        )
    )
    run = model.functions["repro.mod:Server.run"]
    callees = [site.callee for site in run.calls if not site.external]
    assert callees.count("repro.mod:Server.step") == 1
    assert callees.count("repro.mod:Client.send") == 2


def test_local_constructor_and_external_lock_calls():
    model = _model(
        (
            "src/repro/mod.py",
            "import threading\n"
            "\n"
            "class Worker:\n"
            "    def go(self):\n"
            "        pass\n"
            "\n"
            "def main():\n"
            "    worker = Worker()\n"
            "    worker.go()\n"
            "    lock = threading.Lock()\n"
            "    lock.acquire()\n",
        )
    )
    main = model.functions["repro.mod:main"]
    project = [s.callee for s in main.calls if not s.external]
    external = [s.callee for s in main.calls if s.external]
    assert "repro.mod:Worker.go" in project
    assert "threading.Lock.acquire" in external


def test_inherited_method_resolves_through_base():
    model = _model(
        (
            "src/repro/mod.py",
            "class Base:\n"
            "    def shared(self):\n"
            "        pass\n"
            "\n"
            "class Child(Base):\n"
            "    def run(self):\n"
            "        self.shared()\n",
        )
    )
    run = model.functions["repro.mod:Child.run"]
    assert [s.callee for s in run.calls] == ["repro.mod:Base.shared"]


def test_reachable_from_records_shortest_witness():
    model = _model(
        (
            "src/repro/mod.py",
            "def c():\n    pass\n"
            "def b():\n    c()\n"
            "def a():\n    b()\n    c()\n",
        )
    )
    paths = model.reachable_from(["repro.mod:a"])
    # ``c`` is reachable two ways; breadth-first keeps the direct hop.
    assert paths["repro.mod:c"] == ("repro.mod:a", "repro.mod:c")
    assert paths["repro.mod:b"] == ("repro.mod:a", "repro.mod:b")


def test_async_roots_lists_every_coroutine():
    model = _model(
        (
            "src/repro/mod.py",
            "async def handler():\n    pass\n"
            "def plain():\n    pass\n"
            "class S:\n"
            "    async def serve(self):\n        pass\n",
        )
    )
    assert set(model.async_roots()) == {
        "repro.mod:handler",
        "repro.mod:S.serve",
    }


def test_by_reference_handoff_creates_no_call_edge():
    """``run_in_executor(None, fn)`` passes ``fn`` without calling it.

    No edge means EM007 blesses executor offload.
    """
    model = _model(
        (
            "src/repro/mod.py",
            "import asyncio\n"
            "\n"
            "def blocking():\n    pass\n"
            "\n"
            "async def handler():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, blocking)\n"
            "    await asyncio.to_thread(blocking)\n",
        )
    )
    handler = model.functions["repro.mod:handler"]
    assert all(
        site.callee != "repro.mod:blocking" for site in handler.calls
    )
    assert model.reachable_from(model.async_roots()).keys() == {
        "repro.mod:handler"
    }


def test_import_closure_is_transitive():
    model = _model(
        ("src/repro/a.py", "from repro import b\n"),
        ("src/repro/b.py", "import repro.c\n"),
        ("src/repro/c.py", "X = 1\n"),
        ("src/repro/d.py", "Y = 2\n"),
    )
    closure = model.import_closure("src/repro/a.py")
    assert closure == {"src/repro/a.py", "src/repro/b.py", "src/repro/c.py"}
    assert model.import_closure("src/repro/d.py") == {"src/repro/d.py"}
