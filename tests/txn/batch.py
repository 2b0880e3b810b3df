"""Drive a DDSS batch primitive for one key from a test process."""


def one(env, batch):
    """A Process running ``batch`` for one key: ``yield one(env,
    store.snapshot_all([key]))`` fails with the key's failure or returns
    its value.  The ``txn`` clients only ever run whole batches inline."""
    def run():
        (ok, value), = yield from batch
        if not ok:
            raise value
        return value

    return env.process(run())
