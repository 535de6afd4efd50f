from spotground.nn import EncoderConfig

from perfbench import opcount

TINY = EncoderConfig(input_dim=3, output_dim=2, model_dim=4, num_layers=1, num_heads=2,
                     hidden_dim=5)


def test_forward_matches_hand_count():
    # B=2, T=3: 6 rows, 2 heads of width 2
    flops = {
        "input": 2 * 6 * 3 * 4,         # 144
        "qkv": 3 * 2 * 6 * 4 * 4,       # 576
        "scores": 2 * 4 * 3 * 2 * 3,    # 144, four (batch, head) pairs
        "context": 2 * 4 * 3 * 3 * 2,   # 144
        "out_proj": 2 * 6 * 4 * 4,      # 192
        "ffn": 2 * (2 * 6 * 4 * 5),     # 480
        "head": 2 * 2 * 4 * 2,          # 32
    }
    elements = {
        "input": 6 * 3 + 3 * 4 + 6 * 4,
        "qkv": 3 * (6 * 4 + 4 * 4 + 6 * 4),
        "scores": 4 * (3 * 2 + 2 * 3 + 3 * 3),
        "context": 4 * (3 * 3 + 3 * 2 + 3 * 2),
        "out_proj": 6 * 4 + 4 * 4 + 6 * 4,
        "ffn": (6 * 4 + 4 * 5 + 6 * 5) + (6 * 5 + 5 * 4 + 6 * 4),
        "head": 2 * 4 + 4 * 2 + 2 * 2,
    }
    got = opcount.encoder_forward(TINY, B=2, T=3)
    assert got.flops == sum(flops.values()) == 1712
    assert got.bytes == 8 * sum(elements.values()) == 8 * 646


def test_backward_is_two_products_per_forward_product_except_input():
    fwd = opcount.encoder_forward(TINY, B=2, T=3)
    bwd = opcount.encoder_backward(TINY, B=2, T=3)
    input_proj = opcount.matmul(1, 6, 3, 4)
    assert bwd.flops == 2 * fwd.flops - input_proj.flops == 3280
    assert bwd.bytes == 2 * fwd.bytes - input_proj.bytes


def test_counts_scale_with_layers_and_batch():
    one = opcount.encoder_forward(TINY, B=1, T=3)
    assert opcount.encoder_forward(TINY, B=4, T=3).flops == 4 * one.flops
    two = EncoderConfig(input_dim=3, output_dim=2, model_dim=4, num_layers=2, num_heads=2,
                        hidden_dim=5)
    layer = 3 * 2 * 3 * 4 * 4 + 2 * 2 * 3 * 2 * 3 * 2 + 2 * 3 * 4 * 4 + 2 * 2 * 3 * 4 * 5
    assert opcount.encoder_forward(two, B=1, T=3).flops - one.flops == layer
