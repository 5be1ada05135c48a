#include "exp/open_data.hh"

#include <cmath>
#include <map>
#include <sstream>

#include "media/ladder.hh"
#include "media/ssim.hh"
#include "util/file_io.hh"
#include "util/require.hh"
#include "util/running_stats.hh"

namespace puffer::exp {

void OpenDataWriter::Recorder::on_video_sent(const double time_s,
                                             const abr::ChunkRecord& record,
                                             const double /*buffer_s*/) {
  VideoSentRow row;
  row.time = time_s;
  row.stream_id = stream_id_;
  row.expt_id = expt_id_;
  row.size = record.size_bytes;
  row.ssim_index = media::db_to_ssim(record.ssim_db);
  row.cwnd = record.tcp_at_send.cwnd_pkts;
  row.in_flight = record.tcp_at_send.in_flight_pkts;
  row.min_rtt = record.tcp_at_send.min_rtt_s;
  row.rtt = record.tcp_at_send.srtt_s;
  row.delivery_rate = record.tcp_at_send.delivery_rate_bps;
  writer_->video_sent_.push_back(row);
}

void OpenDataWriter::Recorder::on_video_acked(const double time_s,
                                              const int64_t chunk_index) {
  writer_->video_acked_.push_back(
      VideoAckedRow{time_s, stream_id_, expt_id_, chunk_index});
}

void OpenDataWriter::Recorder::on_client_buffer(const double time_s,
                                                const char* event,
                                                const double buffer_s,
                                                const double cum_rebuffer_s) {
  ClientBufferRow row;
  row.time = time_s;
  row.stream_id = stream_id_;
  row.expt_id = expt_id_;
  row.event = event;
  row.buffer = buffer_s;
  row.cum_rebuf = cum_rebuffer_s;
  writer_->client_buffer_.push_back(std::move(row));
}

std::string OpenDataWriter::video_sent_csv() const {
  std::ostringstream out;
  out << "time,stream_id,expt_id,size,ssim_index,cwnd,in_flight,min_rtt,"
         "rtt,delivery_rate\n";
  for (const auto& r : video_sent_) {
    out << r.time << ',' << r.stream_id << ',' << r.expt_id << ',' << r.size
        << ',' << r.ssim_index << ',' << r.cwnd << ',' << r.in_flight << ','
        << r.min_rtt << ',' << r.rtt << ',' << r.delivery_rate << '\n';
  }
  return out.str();
}

std::string OpenDataWriter::video_acked_csv() const {
  std::ostringstream out;
  out << "time,stream_id,expt_id,chunk_index\n";
  for (const auto& r : video_acked_) {
    out << r.time << ',' << r.stream_id << ',' << r.expt_id << ','
        << r.chunk_index << '\n';
  }
  return out.str();
}

std::string OpenDataWriter::client_buffer_csv() const {
  std::ostringstream out;
  out << "time,stream_id,expt_id,event,buffer,cum_rebuf\n";
  for (const auto& r : client_buffer_) {
    out << r.time << ',' << r.stream_id << ',' << r.expt_id << ',' << r.event
        << ',' << r.buffer << ',' << r.cum_rebuf << '\n';
  }
  return out.str();
}

std::vector<AnalyzedStream> analyze_open_data(
    const std::vector<VideoSentRow>& video_sent,
    const std::vector<VideoAckedRow>& video_acked,
    const std::vector<ClientBufferRow>& client_buffer) {
  require(video_sent.size() == video_acked.size(),
          "analyze_open_data: every sent chunk needs a matching ack "
          "(simulated streams never lose contact)");

  // Group row indices by stream id (rows are time-ordered per stream).
  std::map<int64_t, AnalyzedStream> streams;
  std::map<int64_t, std::vector<size_t>> sent_rows;
  for (size_t i = 0; i < video_sent.size(); i++) {
    sent_rows[video_sent[i].stream_id].push_back(i);
  }

  for (const auto& [stream_id, rows] : sent_rows) {
    AnalyzedStream analyzed;
    analyzed.stream_id = stream_id;
    analyzed.expt_id = video_sent[rows.front()].expt_id;
    analyzed.chunks = static_cast<int>(rows.size());

    double prev_ssim_db = -1.0;
    RunningStats ssim, variation, tx_time, throughput;
    for (const size_t i : rows) {
      const VideoSentRow& sent = video_sent[i];
      const VideoAckedRow& acked = video_acked[i];
      require(acked.stream_id == sent.stream_id,
              "analyze_open_data: sent/acked row misalignment");
      const double tx = acked.time - sent.time;
      require(tx > 0.0, "analyze_open_data: non-positive transmission time");
      tx_time.add(tx);
      throughput.add(static_cast<double>(sent.size) * 8.0 / 1e6 / tx);
      const double ssim_db = media::ssim_to_db(sent.ssim_index);
      ssim.add(ssim_db);
      if (prev_ssim_db >= 0.0) {
        variation.add(std::abs(ssim_db - prev_ssim_db));
      }
      prev_ssim_db = ssim_db;
    }
    analyzed.ssim_mean_db = ssim.mean();
    analyzed.ssim_variation_db = variation.mean();
    analyzed.mean_tx_time_s = tx_time.mean();
    analyzed.mean_throughput_mbps = throughput.mean();
    streams[stream_id] = analyzed;
  }

  // Fold in the client_buffer events.
  for (const auto& row : client_buffer) {
    const auto found = streams.find(row.stream_id);
    if (found == streams.end()) {
      continue;  // stream with buffer events but no sent chunks
    }
    AnalyzedStream& analyzed = found->second;
    analyzed.stall_time_s = std::max(analyzed.stall_time_s, row.cum_rebuf);
    if (row.event == std::string_view{"startup"} &&
        !sent_rows[row.stream_id].empty()) {
      analyzed.startup_delay_s =
          row.time - video_sent[sent_rows[row.stream_id].front()].time;
    }
  }
  // Watch time: content between first and last play reports, plus stalls.
  for (auto& [stream_id, analyzed] : streams) {
    analyzed.watch_time_s =
        analyzed.chunks * media::kChunkDurationS + analyzed.stall_time_s;
  }

  std::vector<AnalyzedStream> result;
  result.reserve(streams.size());
  for (auto& [stream_id, analyzed] : streams) {
    result.push_back(analyzed);
  }
  return result;
}

void OpenDataWriter::write_all(const std::string& directory,
                               const std::string& prefix) const {
  const auto write_table = [&](const std::string& name,
                               const std::string& body) {
    write_file(directory + "/" + prefix + "_" + name + ".csv",
               [&body](std::ostream& out) { out << body; });
  };
  write_table("video_sent", video_sent_csv());
  write_table("video_acked", video_acked_csv());
  write_table("client_buffer", client_buffer_csv());
}

}  // namespace puffer::exp
