/**
 * @file
 * Analytical descriptions of the models being fine-tuned.
 *
 * A model is an ordered list of layers; each layer carries its
 * parameter count, the FLOPs of its forward pass, the size of its
 * boundary (output) activation, and its transient workspace needs.
 * These are the quantities the paper's partition algorithm consumes
 * (after profiling, §3.2), and what the executors move across the
 * simulated interconnect.
 *
 * Mixed-precision convention (§3.1): FP16 weights (2 B/param) are what
 * gets transferred and held in GPU memory; "total parameter size" in
 * the paper's equations is the FP32 master copy (4 B/param); FP16
 * gradients are half of that.
 */

#ifndef MOBIUS_MODEL_MODEL_HH
#define MOBIUS_MODEL_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/units.hh"

namespace mobius
{

/** Broad layer categories (used for reporting only). */
enum class LayerType { Embedding, TransformerBlock, FinalNorm, LmHead };

/** Analytical description of a single model layer. */
struct LayerDesc
{
    std::string name;             //!< printable layer name
    LayerType type = LayerType::TransformerBlock; //!< category
    std::uint64_t paramCount = 0; //!< trainable parameter count
    /** Forward FLOPs for ONE sample (sequence) through this layer. */
    double fwdFlopsPerSample = 0.0;
    /** Output (boundary) activation bytes for one sample, FP16. */
    Bytes actBytesPerSample = 0;
    /** Peak transient workspace bytes for one sample during compute. */
    Bytes workBytesPerSample = 0;
    /**
     * Layers with equal similarity class are identical (same shape and
     * weights layout); the profiler only measures one per class
     * (§3.2 "layer similarity").
     */
    int similarityClass = 0;

    /** FP16 working-weight bytes. */
    Bytes paramBytesFp16() const { return 2 * paramCount; }
    /** FP32 master-weight bytes. */
    Bytes paramBytesFp32() const { return 4 * paramCount; }
    /** FP16 gradient bytes. */
    Bytes gradBytesFp16() const { return 2 * paramCount; }
};

/** An ordered stack of layers. */
struct ModelDesc
{
    std::string name;              //!< printable model name
    std::vector<LayerDesc> layers; //!< layers in execution order
    int seqLen = 0;                //!< training sequence length
    int hidden = 0;                //!< hidden (embedding) width
    int heads = 0;                 //!< attention head count
    /** Default microbatch size from Table 3. */
    int defaultMicrobatch = 1;

    /** @return number of layers in the stack. */
    int numLayers() const { return static_cast<int>(layers.size()); }

    /** Total trainable parameters across all layers. */
    std::uint64_t totalParams() const;
    /** FP32 master parameter bytes (the paper's model size). */
    Bytes totalParamBytesFp32() const;
    /** FP16 working parameter bytes. */
    Bytes totalParamBytesFp16() const;
    /** Number of distinct similarity classes. */
    int numSimilarityClasses() const;
};

/** GPT-like transformer configuration (Table 3 rows). */
struct GptConfig
{
    std::string name;       //!< printable name ("GPT-15B", ...)
    int heads = 0;          //!< attention head count
    int hidden = 0;         //!< hidden width
    int numBlocks = 0;      //!< transformer block count
    int microbatchSize = 1; //!< Table 3 default microbatch size
    int vocab = 50257;      //!< vocabulary size (GPT-2 BPE)
    int seqLen = 512;       //!< training sequence length
};

/** Table 3: 3B model (32 heads, hidden 2048, 64 layers, mbs 2). */
GptConfig gpt3b();
/** Table 3: 8B model (32 heads, hidden 4096, 40 layers, mbs 2). */
GptConfig gpt8b();
/** Table 3: 15B model (64 heads, hidden 5120, 40 layers, mbs 1). */
GptConfig gpt15b();
/** Table 3: 51B model (80 heads, hidden 9216, 50 layers, mbs 1). */
GptConfig gpt51b();

/** All four Table 3 configs in paper order. */
std::vector<GptConfig> table3Models();

/** Build the layer stack for a GPT-like config; fatal() unless its
 *  hidden size, heads, blocks, vocabulary, sequence length and
 *  microbatch size are all >= 1. */
ModelDesc makeGptModel(const GptConfig &cfg);

} // namespace mobius

#endif // MOBIUS_MODEL_MODEL_HH
