/**
 * @file
 * ltp-no-shared-rng: no shared mutable RNG streams in model code.
 *
 * Bans rand()/srand()/drand48()-family calls, std::random_device, and
 * declaring std:: random engines (mt19937 and friends) anywhere in
 * model code, plus mutable ltp::Rng *members* — a member stream's
 * consumption order is part of the result, which is exactly the
 * coupling that forced oblivious routing onto the sequential engine
 * before PR 8.
 *
 * Sanctioned idioms:
 *  - ltp::counterHash(seed, coords..., counter) (sim/rng.hh): a pure
 *    draw per stable model coordinate tuple — order free.
 *  - a *local* ltp::Rng owned by one sequential consumer (kernel setup
 *    loops, bench drivers); per-node streams owned by a ThreadCtx are
 *    recorded in tools/tidy_baseline.json with their justification.
 */

#ifndef LTP_TOOLS_LTP_TIDY_NO_SHARED_RNG_CHECK_HH
#define LTP_TOOLS_LTP_TIDY_NO_SHARED_RNG_CHECK_HH

#include "clang-tidy/ClangTidyCheck.h"

namespace ltp_tidy
{

class NoSharedRngCheck : public clang::tidy::ClangTidyCheck
{
  public:
    NoSharedRngCheck(llvm::StringRef name,
                     clang::tidy::ClangTidyContext *context)
        : ClangTidyCheck(name, context)
    {
    }

    void registerMatchers(clang::ast_matchers::MatchFinder *finder) override;
    void
    check(const clang::ast_matchers::MatchFinder::MatchResult &result)
        override;
};

} // namespace ltp_tidy

#endif // LTP_TOOLS_LTP_TIDY_NO_SHARED_RNG_CHECK_HH
