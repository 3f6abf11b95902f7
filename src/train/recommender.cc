#include "train/recommender.h"

#include "ag/tape.h"
#include "serve/ranking.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace dgnn::train {

Recommender::Recommender(models::RecModel& model,
                         const data::Dataset& dataset)
    : dataset_(&dataset) {
  ag::Tape tape;
  models::ForwardResult fwd = model.Forward(tape, /*training=*/false);
  users_ = tape.val(fwd.users);
  items_ = tape.val(fwd.items);
  DGNN_CHECK_EQ(users_.rows(), dataset.num_users);
  DGNN_CHECK_EQ(items_.rows(), dataset.num_items);
  seen_ = dataset.TrainItemsByUser();
  // Precomputed once so SimilarUsers never re-derives norms per call.
  user_norms_ = serve::RowNorms(serve::EmbeddingView(&users_));
}

float Recommender::Score(int32_t user, int32_t item) const {
  DGNN_CHECK_GE(user, 0);
  DGNN_CHECK_LT(user, users_.rows());
  DGNN_CHECK_GE(item, 0);
  DGNN_CHECK_LT(item, items_.rows());
  return serve::EmbeddingView(&items_).Score(users_.row(user), item);
}

std::vector<ScoredItem> Recommender::TopK(int32_t user, int k) const {
  DGNN_CHECK_GE(user, 0);
  DGNN_CHECK_LT(user, users_.rows());
  DGNN_CHECK_GT(k, 0);
  static telemetry::Histogram* latency =
      telemetry::GetHistogram("serve.topk_seconds");
  telemetry::ScopedLatency record_latency(latency);
  telemetry::ScopedSpan span("topk", "serve");
  return serve::TopKUnseenItems(users_.row(user), items_,
                                seen_[static_cast<size_t>(user)], k);
}

std::vector<ScoredItem> Recommender::SimilarUsers(int32_t user,
                                                  int k) const {
  DGNN_CHECK_GE(user, 0);
  DGNN_CHECK_LT(user, users_.rows());
  static telemetry::Histogram* latency =
      telemetry::GetHistogram("serve.similar_users_seconds");
  telemetry::ScopedLatency record_latency(latency);
  telemetry::ScopedSpan span("similar_users", "serve");
  return serve::TopKSimilar(users_.row(user),
                            user_norms_[static_cast<size_t>(user)],
                            serve::EmbeddingView(&users_), user_norms_, user,
                            k);
}

}  // namespace dgnn::train
