#include "model/model.hh"

#include <set>

#include "base/logging.hh"

namespace mobius
{

std::uint64_t
ModelDesc::totalParams() const
{
    std::uint64_t total = 0;
    for (const auto &l : layers)
        total += l.paramCount;
    return total;
}

Bytes
ModelDesc::totalParamBytesFp32() const
{
    return 4 * totalParams();
}

Bytes
ModelDesc::totalParamBytesFp16() const
{
    return 2 * totalParams();
}

int
ModelDesc::numSimilarityClasses() const
{
    std::set<int> classes;
    for (const auto &l : layers)
        classes.insert(l.similarityClass);
    return static_cast<int>(classes.size());
}

GptConfig
gpt3b()
{
    return GptConfig{"GPT-3B", 32, 2048, 64, 2};
}

GptConfig
gpt8b()
{
    return GptConfig{"GPT-8B", 32, 4096, 40, 2};
}

GptConfig
gpt15b()
{
    return GptConfig{"GPT-15B", 64, 5120, 40, 1};
}

GptConfig
gpt51b()
{
    return GptConfig{"GPT-51B", 80, 9216, 50, 1};
}

std::vector<GptConfig>
table3Models()
{
    return {gpt3b(), gpt8b(), gpt15b(), gpt51b()};
}

ModelDesc
makeGptModel(const GptConfig &cfg)
{
    auto require = [&](int value, const char *what) {
        if (value < 1)
            fatal("model '%s': %s must be >= 1, got %d",
                  cfg.name.c_str(), what, value);
    };
    require(cfg.hidden, "hidden size");
    require(cfg.heads, "heads");
    require(cfg.numBlocks, "block count");
    require(cfg.vocab, "vocabulary");
    require(cfg.seqLen, "sequence length");
    require(cfg.microbatchSize, "microbatch size");

    ModelDesc m;
    m.name = cfg.name;
    m.seqLen = cfg.seqLen;
    m.hidden = cfg.hidden;
    m.heads = cfg.heads;
    m.defaultMicrobatch = cfg.microbatchSize;

    const auto h = static_cast<std::uint64_t>(cfg.hidden);
    const auto s = static_cast<std::uint64_t>(cfg.seqLen);
    const auto v = static_cast<std::uint64_t>(cfg.vocab);
    const Bytes act = 2 * s * h;  // FP16 [seq, hidden] boundary tensor

    // Embedding (token + position), output [s, h].
    {
        LayerDesc l;
        l.name = "embedding";
        l.type = LayerType::Embedding;
        l.paramCount = v * h + s * h;
        // A gather plus an add: bandwidth-bound; approximate with a
        // small FLOP count so it never dominates.
        l.fwdFlopsPerSample = 2.0 * static_cast<double>(s * h);
        l.actBytesPerSample = act;
        l.workBytesPerSample = act;
        l.similarityClass = 0;
        m.layers.push_back(l);
    }

    // Transformer blocks: attention (QKV + proj = 4h^2) and MLP
    // (8h^2) weights, plus layer norms. Forward FLOPs per token:
    // 2 FLOPs per weight MAC (24h^2) plus attention score/value
    // matmuls (4sh).
    for (int b = 0; b < cfg.numBlocks; ++b) {
        LayerDesc l;
        l.name = "block" + std::to_string(b);
        l.type = LayerType::TransformerBlock;
        l.paramCount = 12 * h * h + 13 * h;
        l.fwdFlopsPerSample =
            static_cast<double>(s) *
            (24.0 * static_cast<double>(h) * static_cast<double>(h) +
             4.0 * static_cast<double>(s) * static_cast<double>(h));
        l.actBytesPerSample = act;
        // With activation checkpointing the live transient state is a
        // few residual-width tensors plus the attention score matrix.
        l.workBytesPerSample =
            8 * act + 2 * 2 * static_cast<Bytes>(cfg.heads) * s * s;
        l.similarityClass = 1;
        m.layers.push_back(l);
    }

    // Final layer norm.
    {
        LayerDesc l;
        l.name = "final_norm";
        l.type = LayerType::FinalNorm;
        l.paramCount = 2 * h;
        l.fwdFlopsPerSample = 8.0 * static_cast<double>(s * h);
        l.actBytesPerSample = act;
        l.workBytesPerSample = act;
        l.similarityClass = 2;
        m.layers.push_back(l);
    }

    // LM head: [h, v] projection; logits are large but consumed
    // in-place by the loss, so the boundary activation we account is
    // the FP16 logits for loss computation.
    {
        LayerDesc l;
        l.name = "lm_head";
        l.type = LayerType::LmHead;
        l.paramCount = v * h;
        l.fwdFlopsPerSample =
            2.0 * static_cast<double>(s) * static_cast<double>(h) *
            static_cast<double>(v);
        l.actBytesPerSample = 2 * s * v;
        l.workBytesPerSample = 2 * 2 * s * v;
        l.similarityClass = 3;
        m.layers.push_back(l);
    }

    return m;
}

} // namespace mobius
