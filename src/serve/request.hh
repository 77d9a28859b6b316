/**
 * @file
 * The unit of serving work: one inference request, its latency
 * decomposition, and the per-request record the simulator fills in.
 *
 * A request arrives at `arrival` (open-loop: arrivals do not wait for
 * completions), queues until the continuous batcher admits it at an
 * iteration boundary, runs one prefill iteration over its prompt, and
 * then one decode iteration per generated token until `maxNewTokens`
 * have been produced. End-to-end latency decomposes exactly into
 *
 *     e2e = queue + prefill + decode + swapStall
 *
 * where queue is time waiting for admission, prefill/decode are the
 * compute shares of its iterations, and swapStall is the non-compute
 * share — time the batch spent blocked on weight swaps, activation
 * handoffs, or fault retries. The serving bench gates the identity
 * at 1e-9 for every request.
 */

#ifndef MOBIUS_SERVE_REQUEST_HH
#define MOBIUS_SERVE_REQUEST_HH

#include <string>

namespace mobius
{

/** One inference request as submitted by a client. */
struct ServeRequest
{
    int id = -1;            //!< assigned by ServeSim::submit()
    std::string name;       //!< printable; "req<id>" when empty
    double arrival = 0.0;   //!< submission time (simulated seconds)
    int promptTokens = 128; //!< context length at admission
    int maxNewTokens = 32;  //!< tokens to generate before finishing
    /** Per-request end-to-end deadline; 0 = the sim-wide default. */
    double sloSeconds = 0.0;
};

/** Exact decomposition of one request's end-to-end latency. */
struct ServeLatency
{
    double queue = 0.0;     //!< arrival -> admission into a batch
    double prefill = 0.0;   //!< compute share of the first iteration
    double decode = 0.0;    //!< compute share of decode iterations
    double swapStall = 0.0; //!< weight/KV/activation/fault stalls

    /** @return the sum of the four categories. */
    double
    total() const
    {
        return queue + prefill + decode + swapStall;
    }
};

/** What the simulator learned about one completed request. */
struct RequestRecord
{
    ServeRequest spec;        //!< the request as submitted
    double admit = -1.0;      //!< admission time (-1 = never ran)
    double firstToken = -1.0; //!< end of the prefill iteration
    double finish = -1.0;     //!< end of the last decode iteration
    int generated = 0;        //!< tokens produced
    int iterations = 0;       //!< batch iterations participated in
    int gpu = -1;             //!< ZeRO-gather home GPU; -1 = pipelined
    bool sloMet = false;      //!< finished within its deadline
    ServeLatency lat;         //!< exact latency decomposition

    /** @return end-to-end seconds (finish - arrival). */
    double e2e() const { return finish - spec.arrival; }

    /** @return time to first token (prefill completion). */
    double ttft() const { return firstToken - spec.arrival; }

    /** KV slots reserved at admission (prompt + full generation). */
    int
    reservedTokens() const
    {
        return spec.promptTokens + spec.maxNewTokens;
    }

    /** @return tokens processed so far (context length). */
    int totalTokens() const { return spec.promptTokens + generated; }
};

} // namespace mobius

#endif // MOBIUS_SERVE_REQUEST_HH
