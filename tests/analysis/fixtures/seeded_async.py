"""Seeded RB002 violations: blocking engine calls inside async bodies.

Not importable as part of the real package — this fixture only feeds the
analyzer tests (see README.md in this directory). The filename must not
look like test code (``test_*`` / ``conftest``): RB002 exempts those by
name, and these seeds must stay visible.
"""


async def ingest_inline(body, loader, store_cls):
    tree = parse_tree(body)  # seed:RB002-parse  # noqa: F821
    result = loader.load(body)  # seed:RB002-load
    store = store_cls.build(result.tree, result.partitioning)  # seed:RB002-build
    store.warm_up()  # seed:RB002-warmup
    return store


async def query_inline(store, xpath):
    return run_query(store, xpath)  # seed:RB002-query  # noqa: F821


async def push_inline(body, handlers):
    push_parse(body, *handlers)  # seed:RB002-push  # noqa: F821


async def resume_inline(body, journal_path):
    return resume_import(body, journal_path)  # seed:RB002-resume  # noqa: F821


async def partition_inline(partitioner, tree, limit):
    return partitioner.partition(tree, limit)  # seed:RB002-partition


async def offloaded_is_fine(service, loader, body, store, xpath):
    # the sanctioned pattern: the blocking callable is passed *uncalled*
    result = await service.run_blocking(loader.load, body)
    run = await service.run_blocking(run_query, store, xpath)  # noqa: F821
    return result, run


async def parse_header_is_fine(line):
    # str.partition takes one argument; the engine's takes (tree, limit)
    name, _sep, value = line.partition(":")
    return name, value


async def nested_def_is_fine(loader, body, offload):
    def blocking_job():
        # runs on whatever thread the offload helper picks, not the loop
        return loader.load(body)

    return await offload(blocking_job)


async def sanctioned_inline(loader, body):
    return loader.load(body)  # repro-lint: skip=RB002


def sync_caller_is_fine(loader, body):
    # RB002 is about async frames only; sync code may block freely
    return loader.load(body)
