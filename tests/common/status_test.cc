#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace xdbft {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UseReturnNotOk(int x) {
  XDBFT_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UseReturnNotOk(1).ok());
  EXPECT_TRUE(UseReturnNotOk(-1).IsInvalidArgument());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r(Status::OK());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

Result<int> Doubled(Result<int> in) {
  XDBFT_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_TRUE(Doubled(Status::Aborted("no")).status().IsAborted());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

// Reading the value of an error Result aborts with the status message in
// every build type (not only where assert() is compiled in).
TEST(ResultDeathTest, ValueOfAnErrorAbortsWithTheStatusMessage) {
  Result<int> r(Status::NotFound("gone"));
  const Result<int>& cr = r;
  Result<std::string> s(Status::Aborted("stopped"));
  const char* kGone = "ValueOrDie on an error: Not found: gone";
  EXPECT_DEATH(static_cast<void>(r.ValueOrDie()), kGone);
  EXPECT_DEATH(static_cast<void>(cr.ValueOrDie()), kGone);
  EXPECT_DEATH(static_cast<void>(*r), kGone);
  EXPECT_DEATH(static_cast<void>(std::move(r).ValueOrDie()), kGone);
  EXPECT_DEATH(static_cast<void>(s->size()),
               "ValueOrDie on an error: Aborted: stopped");
}

}  // namespace
}  // namespace xdbft
