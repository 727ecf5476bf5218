"""Call-graph construction: what resolves, what deliberately doesn't."""

from __future__ import annotations

from repro.analysis.callgraph import module_name_for, parse_pragmas

from tests.analysis.conftest import analyze


def edges_of(graph, stack_safe=None):
    return {
        (e.caller, e.callee)
        for e in graph.edges
        if stack_safe is None or e.stack_safe is stack_safe
    }


class TestNameResolution:
    def test_module_level_bare_name(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def a():
                return b()

            def b():
                return 1
            """,
        )
        assert ("mod.a", "mod.b") in edges_of(graph)

    def test_nested_function_in_lexical_scope(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def outer():
                def inner():
                    return inner()  # named self-recursion of a nested def
                return inner()
            """,
        )
        assert ("mod.outer", "mod.outer.inner") in edges_of(graph)
        assert ("mod.outer.inner", "mod.outer.inner") in edges_of(graph)

    def test_from_import_alias(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            util="""
            def helper():
                return 1
            """,
            mod="""
            from util import helper

            def caller():
                return helper()
            """,
        )
        assert ("mod.caller", "util.helper") in edges_of(graph)

    def test_module_attribute_call(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            util="""
            def helper():
                return 1
            """,
            mod="""
            import util

            def caller():
                return util.helper()
            """,
        )
        assert ("mod.caller", "util.helper") in edges_of(graph)

    def test_unknown_bare_name_unresolved(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def caller():
                return len([1])
            """,
        )
        assert edges_of(graph) == set()


class TestMethodResolution:
    def test_self_call_through_mro_and_overrides(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            class Base:
                def run(self):
                    return self.step()

                def step(self):
                    return 0

            class Sub(Base):
                def step(self):
                    return 1
            """,
        )
        edges = edges_of(graph)
        # static target *and* the dynamic-dispatch override
        assert ("mod.Base.run", "mod.Base.step") in edges
        assert ("mod.Base.run", "mod.Sub.step") in edges

    def test_class_attribute_call(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            class Other:
                def calc(self):
                    return 2

            def caller():
                return Other.calc(Other())
            """,
        )
        assert ("mod.caller", "mod.Other.calc") in edges_of(graph)

    def test_duck_typed_attribute_call_unresolved(self, tmp_path):
        """The precision trade: delegating wrappers must not create
        edges just because the method *name* matches (this is exactly the
        storage-handle `descendants_or_self` false-positive class)."""
        _, graph = analyze(
            tmp_path,
            mod="""
            class Handle:
                def walk(self):
                    for child in self.hops():
                        yield from child.walk()  # other object's method

                def hops(self):
                    return []
            """,
        )
        assert ("mod.Handle.walk", "mod.Handle.walk") not in edges_of(graph)


class TestTrampolineRecognition:
    def test_yielded_call_in_generator_is_stack_safe(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def task(n):
                sub = yield task(n - 1)
                return sub
            """,
        )
        assert ("mod.task", "mod.task") in edges_of(graph, stack_safe=True)
        assert ("mod.task", "mod.task") not in edges_of(graph, stack_safe=False)

    def test_yield_from_is_not_stack_safe(self, tmp_path):
        """Delegation keeps every outer frame alive — no exemption."""
        _, graph = analyze(
            tmp_path,
            mod="""
            def task(n):
                yield from task(n - 1)
            """,
        )
        assert ("mod.task", "mod.task") in edges_of(graph, stack_safe=False)

    def test_plain_call_in_generator_is_not_stack_safe(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def task(n):
                sub = task(n - 1)  # instantiated AND driven locally
                yield sub
            """,
        )
        assert ("mod.task", "mod.task") in edges_of(graph, stack_safe=False)


class TestPragmasAndModules:
    def test_parse_skip_pragma_with_codes(self):
        pragmas = parse_pragmas(["x = 1  # repro-lint: skip=RB001,REC001"])
        (pragma,) = pragmas[1]
        assert pragma.directive == "skip"
        assert pragma.codes == {"RB001", "REC001"}

    def test_parse_skip_pragma_all_codes(self):
        pragmas = parse_pragmas(["x = 1  # repro-lint: skip"])
        (pragma,) = pragmas[1]
        assert pragma.directive == "skip"
        assert pragma.codes == frozenset()

    def test_allow_recursion_marks_function(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def capped(n):  # repro-lint: allow-recursion
                return capped(n - 1)
            """,
        )
        assert graph.functions["mod.capped"].allow_recursion

    def test_module_name_ascends_packages(self, tmp_path):
        pkg = tmp_path / "top" / "inner"
        pkg.mkdir(parents=True)
        (tmp_path / "top" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        target = pkg / "leaf.py"
        target.write_text("")
        assert module_name_for(target) == "top.inner.leaf"
        assert module_name_for(pkg / "__init__.py") == "top.inner"


class TestScopeAttribution:
    """Decorators/defaults evaluate in the enclosing scope, and defs
    bound inside compound statements are still visible locals —
    regression coverage for the scope-attribution fixes."""

    def test_own_decorator_call_not_attributed_to_decorated_function(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def deco(f):
                return f

            @deco
            def worker():
                return 1
            """,
        )
        # `@deco` runs at module level, not inside worker's frame.
        assert ("mod.worker", "mod.deco") not in edges_of(graph)

    def test_nested_def_decorator_attributed_to_enclosing_function(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def deco(f):
                return f

            def outer():
                @deco
                def inner():
                    return 1
                return inner
            """,
        )
        edges = edges_of(graph)
        # the decorator call executes when `outer` runs ...
        assert ("mod.outer", "mod.deco") in edges
        # ... and must not be credited to `inner`, which never calls it.
        assert ("mod.outer.inner", "mod.deco") not in edges

    def test_nested_def_default_value_attributed_to_enclosing_function(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def make_default():
                return 3

            def outer():
                def inner(x=make_default()):
                    return x
                return inner
            """,
        )
        edges = edges_of(graph)
        assert ("mod.outer", "mod.make_default") in edges
        assert ("mod.outer.inner", "mod.make_default") not in edges

    def test_decorator_argument_recursion_is_not_a_cycle(self, tmp_path):
        """A decorated function whose decorator *names* it must not be
        reported as self-recursive (the old traversal credited the
        decorator call to the function itself)."""
        _, graph = analyze(
            tmp_path,
            mod="""
            def retry(fn):
                return fn

            @retry
            def fetch():
                return 1
            """,
        )
        assert ("mod.fetch", "mod.retry") not in edges_of(graph)

    def test_def_inside_if_is_visible_to_enclosing_function(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def outer(flag):
                if flag:
                    def helper():
                        return 1
                else:
                    def helper():
                        return 2
                return helper()
            """,
        )
        assert ("mod.outer", "mod.outer.helper") in edges_of(graph)

    def test_def_inside_try_is_visible_and_can_self_recurse(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def outer():
                try:
                    def walk(n):
                        return walk(n - 1)
                finally:
                    pass
                return walk(5)
            """,
        )
        edges = edges_of(graph)
        assert ("mod.outer", "mod.outer.walk") in edges
        assert ("mod.outer.walk", "mod.outer.walk") in edges

    def test_def_inside_nested_class_not_visible_to_function_scope(self, tmp_path):
        _, graph = analyze(
            tmp_path,
            mod="""
            def outer():
                class Local:
                    def helper(self):
                        return 1
                return helper()  # unresolvable: bound to Local, not outer
            """,
        )
        assert ("mod.outer", "mod.outer.Local.helper") not in edges_of(graph)
