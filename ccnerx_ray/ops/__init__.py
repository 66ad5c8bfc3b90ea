"""Large-scale training-data operations beyond the reference's inventory:
deduplication (exact / MinHash-LSH / SimHash / embedding-cosine), similarity
search (brute-force and LSH-bucketed ANN), text analysis (language-ID,
quality scoring, token counting, fingerprinting) and multimodal column
plumbing. All are Dataset → Dataset transforms built on ``map_batches`` /
coarse hash-partitioned ``groupby``; none call ``ray.init``."""
