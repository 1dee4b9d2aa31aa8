//! Message and traffic taxonomy for flit-hop accounting.
//!
//! The paper reports all network traffic in *flit-hops*, split by the purpose
//! of the message (load / store / writeback / protocol overhead) and, within
//! the load/store/writeback categories, by control vs. data and by whether the
//! carried words were eventually useful. [`MessageKind`] enumerates the
//! concrete protocol messages exchanged by both protocol families and maps
//! each to its [`MessageClass`]; [`TrafficBucket`] enumerates the stacked-bar
//! buckets used in Figures 5.1a–5.1d.

use std::fmt;

/// The four top-level traffic categories of Figure 5.1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Load requests and their responses.
    Load,
    /// Store/ownership requests and their responses.
    Store,
    /// Writebacks from L1 to L2 and from L2 to memory.
    Writeback,
    /// Protocol overhead: invalidations, acks, directory unblocks, NACKs,
    /// Bloom-filter copies.
    Overhead,
}

impl MessageClass {
    /// All classes, in figure order.
    pub const ALL: [MessageClass; 4] = [
        MessageClass::Load,
        MessageClass::Store,
        MessageClass::Writeback,
        MessageClass::Overhead,
    ];

    /// Label used in figure output.
    pub const fn label(self) -> &'static str {
        match self {
            MessageClass::Load => "LD",
            MessageClass::Store => "ST",
            MessageClass::Writeback => "WB",
            MessageClass::Overhead => "Overhead",
        }
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Concrete protocol message types exchanged on the mesh.
///
/// The set is the union of what the MESI directory protocol and the DeNovo
/// protocol families need; each message kind knows which [`MessageClass`] it
/// is accounted under and whether it is a pure control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    // ---- requests -----------------------------------------------------
    /// Read (GetS / DeNovo load) request from an L1 to the home L2 slice.
    LoadReq,
    /// Read request sent directly to a memory controller (L2 request bypass).
    LoadReqToMc,
    /// Write-ownership request: MESI GetM, or a DeNovo registration request.
    StoreReq,
    /// MESI upgrade request (S→M without data).
    UpgradeReq,
    /// Dragon update request: a write to a shared line announces itself to
    /// the home directory so the written words can be pushed to sharers.
    UpdateReq,
    /// L2 miss forwarded to the memory controller.
    MemReadReq,
    /// L2 writeback to memory (request + data).
    MemWriteback,
    // ---- responses ----------------------------------------------------
    /// Data response destined for an L1 cache.
    DataToL1,
    /// Data response destined for an L2 slice (fill or forwarded copy).
    DataToL2,
    /// Data response sent from a memory controller directly to an L1
    /// (MemL1 / MMemL1 optimizations).
    MemDataToL1,
    /// Acknowledgement of a store/registration without data.
    StoreAck,
    /// Dragon update broadcast: the written words pushed to a sharer's L1 so
    /// it never re-fetches the line.
    UpdateData,
    // ---- writebacks ---------------------------------------------------
    /// L1→L2 writeback carrying dirty data.
    L1Writeback,
    /// L1→L2 clean-eviction notification (MESI PutS / clean PutE), control only.
    CleanWritebackCtl,
    /// Combined DeNovo writeback + registration for pending words.
    WritebackAndRegister,
    // ---- protocol overhead ---------------------------------------------
    /// MESI invalidation sent to a sharer, or DeNovo invalidation of a prior
    /// registrant.
    Invalidation,
    /// Invalidation acknowledgement.
    InvAck,
    /// MESI directory-unblock message.
    DirUnblock,
    /// MESI directory-unblock carrying data (MMemL1 "unblock+data").
    DirUnblockWithData,
    /// Negative acknowledgement from a blocking directory.
    Nack,
    /// Request for a copy of an L2 Bloom filter (L2 request bypass).
    BloomCopyReq,
    /// Response carrying an L2 Bloom filter image.
    BloomCopyResp,
}

impl MessageKind {
    /// Which top-level traffic category the message is accounted under.
    ///
    /// Following the paper: the MMemL1 "unblock+data" message is profiled as
    /// *load* traffic, combined writeback+register messages as *writeback*
    /// traffic, and Bloom-filter copies as *overhead*.
    pub const fn class(self) -> MessageClass {
        match self {
            MessageKind::LoadReq
            | MessageKind::LoadReqToMc
            | MessageKind::DataToL1
            | MessageKind::DataToL2
            | MessageKind::MemDataToL1
            | MessageKind::MemReadReq
            | MessageKind::DirUnblockWithData => MessageClass::Load,
            MessageKind::StoreReq
            | MessageKind::UpgradeReq
            | MessageKind::UpdateReq
            | MessageKind::UpdateData
            | MessageKind::StoreAck => MessageClass::Store,
            MessageKind::L1Writeback
            | MessageKind::MemWriteback
            | MessageKind::WritebackAndRegister => MessageClass::Writeback,
            MessageKind::Invalidation
            | MessageKind::InvAck
            | MessageKind::DirUnblock
            | MessageKind::Nack
            | MessageKind::CleanWritebackCtl
            | MessageKind::BloomCopyReq
            | MessageKind::BloomCopyResp => MessageClass::Overhead,
        }
    }

    /// Whether this is a request (as opposed to a response or writeback).
    pub const fn is_request(self) -> bool {
        matches!(
            self,
            MessageKind::LoadReq
                | MessageKind::LoadReqToMc
                | MessageKind::StoreReq
                | MessageKind::UpgradeReq
                | MessageKind::UpdateReq
                | MessageKind::MemReadReq
                | MessageKind::BloomCopyReq
        )
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

/// The stacked-bar buckets of Figures 5.1b–5.1d, plus the overall overhead
/// bucket of Figure 5.1a.
///
/// Load and store traffic is broken into request control, response control,
/// and response data by destination (L1 / L2) and usefulness; writeback
/// traffic into control and data by destination (L2 / memory) and usefulness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficBucket {
    /// Request control flits (`Req Ctl`).
    ReqCtl,
    /// Response header/control flits, including unfilled data-flit fractions
    /// (`Resp Ctl`).
    RespCtl,
    /// Response data destined for an L1 that was eventually used.
    RespL1Used,
    /// Response data destined for an L1 that was wasted.
    RespL1Waste,
    /// Response data destined for an L2 that was eventually used.
    RespL2Used,
    /// Response data destined for an L2 that was wasted.
    RespL2Waste,
    /// Writeback control flits.
    WbControl,
    /// Writeback data into the L2 that was dirty/useful.
    WbL2Used,
    /// Writeback data into the L2 that was unmodified (waste).
    WbL2Waste,
    /// Writeback data to memory that was dirty/useful.
    WbMemUsed,
    /// Writeback data to memory that was unmodified (waste).
    WbMemWaste,
    /// Protocol overhead flits (invalidations, acks, unblocks, NACKs, Bloom
    /// copies).
    Overhead,
}

impl TrafficBucket {
    /// Every bucket, in a stable serialization order (request/response
    /// buckets, writeback buckets, then overhead).
    pub const ALL: [TrafficBucket; 12] = [
        TrafficBucket::ReqCtl,
        TrafficBucket::RespCtl,
        TrafficBucket::RespL1Used,
        TrafficBucket::RespL1Waste,
        TrafficBucket::RespL2Used,
        TrafficBucket::RespL2Waste,
        TrafficBucket::WbControl,
        TrafficBucket::WbL2Used,
        TrafficBucket::WbL2Waste,
        TrafficBucket::WbMemUsed,
        TrafficBucket::WbMemWaste,
        TrafficBucket::Overhead,
    ];

    /// Buckets used for load/store breakdowns (Figures 5.1b/5.1c), in
    /// stacking order.
    pub const REQUEST_RESPONSE: [TrafficBucket; 6] = [
        TrafficBucket::ReqCtl,
        TrafficBucket::RespCtl,
        TrafficBucket::RespL1Used,
        TrafficBucket::RespL1Waste,
        TrafficBucket::RespL2Used,
        TrafficBucket::RespL2Waste,
    ];

    /// Buckets used for the writeback breakdown (Figure 5.1d), in stacking
    /// order.
    pub const WRITEBACK: [TrafficBucket; 5] = [
        TrafficBucket::WbControl,
        TrafficBucket::WbL2Used,
        TrafficBucket::WbL2Waste,
        TrafficBucket::WbMemUsed,
        TrafficBucket::WbMemWaste,
    ];

    /// Whether the bucket counts wasted data flit-hops.
    pub const fn is_waste(self) -> bool {
        matches!(
            self,
            TrafficBucket::RespL1Waste
                | TrafficBucket::RespL2Waste
                | TrafficBucket::WbL2Waste
                | TrafficBucket::WbMemWaste
        )
    }

    /// Figure label for the bucket.
    pub const fn label(self) -> &'static str {
        match self {
            TrafficBucket::ReqCtl => "Req Ctl",
            TrafficBucket::RespCtl => "Resp Ctl",
            TrafficBucket::RespL1Used => "Resp L1 Used",
            TrafficBucket::RespL1Waste => "Resp L1 Waste",
            TrafficBucket::RespL2Used => "Resp L2 Used",
            TrafficBucket::RespL2Waste => "Resp L2 Waste",
            TrafficBucket::WbControl => "Control",
            TrafficBucket::WbL2Used => "L2 Used",
            TrafficBucket::WbL2Waste => "L2 Waste",
            TrafficBucket::WbMemUsed => "Mem Used",
            TrafficBucket::WbMemWaste => "Mem Waste",
            TrafficBucket::Overhead => "Overhead",
        }
    }
}

impl fmt::Display for TrafficBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_match_figure_legend() {
        assert_eq!(MessageClass::Load.to_string(), "LD");
        assert_eq!(MessageClass::Writeback.to_string(), "WB");
        assert_eq!(MessageClass::ALL.len(), 4);
    }

    #[test]
    fn bucket_all_is_complete_and_duplicate_free() {
        for w in TrafficBucket::ALL.windows(2) {
            assert!(
                TrafficBucket::ALL.iter().filter(|b| **b == w[0]).count() == 1,
                "{:?} listed twice",
                w[0]
            );
        }
        for b in TrafficBucket::REQUEST_RESPONSE
            .iter()
            .chain(TrafficBucket::WRITEBACK.iter())
            .chain(std::iter::once(&TrafficBucket::Overhead))
        {
            assert!(TrafficBucket::ALL.contains(b), "{b:?} missing from ALL");
        }
    }

    #[test]
    fn unblock_with_data_is_profiled_as_load_traffic() {
        // Paper §5.2.4: MMemL1 turns directory unblocks into unblock+data
        // messages "that are profiled as load traffic".
        assert_eq!(MessageKind::DirUnblockWithData.class(), MessageClass::Load);
        assert_eq!(MessageKind::DirUnblock.class(), MessageClass::Overhead);
    }

    #[test]
    fn combined_writeback_register_is_writeback_traffic() {
        // Paper §5.2.2 (LU discussion): combined messages are profiled as
        // writeback traffic.
        assert_eq!(
            MessageKind::WritebackAndRegister.class(),
            MessageClass::Writeback
        );
    }

    #[test]
    fn bloom_copies_are_overhead() {
        assert_eq!(MessageKind::BloomCopyReq.class(), MessageClass::Overhead);
        assert_eq!(MessageKind::BloomCopyResp.class(), MessageClass::Overhead);
    }

    #[test]
    fn request_kinds_are_requests() {
        for k in [
            MessageKind::LoadReq,
            MessageKind::LoadReqToMc,
            MessageKind::StoreReq,
            MessageKind::UpgradeReq,
            MessageKind::MemReadReq,
        ] {
            assert!(k.is_request(), "{k} should be a request");
        }
        assert!(!MessageKind::DataToL1.is_request());
    }

    #[test]
    fn update_messages_are_store_traffic() {
        // Dragon's update broadcast replaces store invalidations: the
        // request announces the write, the data message carries the written
        // words. Both are accounted as store traffic (the class whose
        // RespL1Used/Waste buckets the update-word classification lands in).
        assert_eq!(MessageKind::UpdateReq.class(), MessageClass::Store);
        assert_eq!(MessageKind::UpdateData.class(), MessageClass::Store);
        assert!(MessageKind::UpdateReq.is_request());
        assert!(!MessageKind::UpdateData.is_request());
    }

    #[test]
    fn waste_buckets_are_marked() {
        assert!(TrafficBucket::RespL1Waste.is_waste());
        assert!(TrafficBucket::WbMemWaste.is_waste());
        assert!(!TrafficBucket::RespL1Used.is_waste());
        assert!(!TrafficBucket::ReqCtl.is_waste());
    }

    #[test]
    fn bucket_groups_have_expected_sizes() {
        assert_eq!(TrafficBucket::REQUEST_RESPONSE.len(), 6);
        assert_eq!(TrafficBucket::WRITEBACK.len(), 5);
        assert_eq!(TrafficBucket::ReqCtl.label(), "Req Ctl");
    }
}
