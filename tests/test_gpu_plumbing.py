"""GPU plumbing for the DocEncoder actor pool (VERDICT r4 #3):
``doc_embeddings(num_gpus=...)`` must reach the ``map_batches`` call, and
the 0.0 default must add NO resource kwargs so CPU scheduling is
bit-identical to before."""


def test_pool_resources_contract():
    from ccnerx_ray.stages.encode import pool_resources

    assert pool_resources(0.0) == {}
    assert pool_resources(0) == {}
    assert pool_resources(1) == {"num_gpus": 1.0}
    assert pool_resources(0.25) == {"num_gpus": 0.25}


def test_encoder_pool_receives_num_gpus(ray_session, monkeypatch):
    import ray.data

    from ccnerx_ray.stages.encode import doc_embeddings

    ds = ray.data.from_items([{"doc_id": 1, "text": "a b"}])
    calls = []
    real = ray.data.Dataset.map_batches

    def spy(self, fn, **kw):
        calls.append(kw)
        return real(self, fn, **kw)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    doc_embeddings(ds, num_gpus=0.5)
    assert calls[-1]["num_gpus"] == 0.5
    calls.clear()
    doc_embeddings(ds)
    assert "num_gpus" not in calls[-1]
