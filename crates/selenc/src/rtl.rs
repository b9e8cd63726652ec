//! Synthesizable Verilog-2001 emission for the selective-encoding
//! decompressor.
//!
//! The generated module matches the executable model in
//! [`Decompressor`](crate::Decompressor) state for state:
//!
//! * inputs: `clk`, `rst_n`, a `w`-bit `codeword`, and `codeword_valid`;
//! * outputs: an `m`-bit `slice` with a one-cycle `slice_valid` strobe;
//! * internals: the 3-state controller (`AWAIT_HEADER`, `IN_SLICE`,
//!   `AWAIT_LITERAL`), the fill latch, a group-index register, and the
//!   `m`-bit slice buffer — the register budget the paper's area numbers
//!   describe (`m + c` datapath flip-flops plus a small controller).
//!
//! The output is plain structural/behavioural Verilog with no vendor
//! constructs, suitable for any synthesis flow. Textual invariants (port
//! list, register widths, state encoding, reset behaviour) are covered by
//! unit tests; bit-level behaviour is covered by the Rust model the code
//! is generated from.

use std::fmt::Write as _;

use crate::code::SliceCode;

/// Generates the Verilog source of a decompressor for `code`, named
/// `module_name`.
///
/// # Panics
///
/// Panics if `module_name` is not a valid Verilog identifier (ASCII
/// letters, digits, `_`, not starting with a digit).
pub fn generate_verilog(code: SliceCode, module_name: &str) -> String {
    assert!(
        is_verilog_identifier(module_name),
        "invalid Verilog module name {module_name:?}"
    );
    let m = code.chains();
    let c = code.data_bits();
    let w = code.tam_width();
    let groups = code.group_count();
    let gidx_bits = 32 - (groups.max(2) - 1).leading_zeros(); // ceil(log2(groups))

    let mut v = String::new();
    let _ = writeln!(
        v,
        "// Selective-encoding decompressor: w = {w} TAM inputs -> m = {m} wrapper chains."
    );
    let _ = writeln!(
        v,
        "// Generated by selenc {}; codeword = {{mode, last, data[{dm}:0]}}.",
        env!("CARGO_PKG_VERSION"),
        dm = c - 1
    );
    let _ = writeln!(v, "module {module_name} (");
    let _ = writeln!(v, "    input  wire             clk,");
    let _ = writeln!(v, "    input  wire             rst_n,");
    let _ = writeln!(v, "    input  wire [{}:0]      codeword,", w - 1);
    let _ = writeln!(v, "    input  wire             codeword_valid,");
    let _ = writeln!(v, "    output reg  [{}:0]      slice,", m - 1);
    let _ = writeln!(v, "    output reg              slice_valid");
    let _ = writeln!(v, ");");
    v.push('\n');
    let _ = writeln!(v, "    // Field extraction.");
    let _ = writeln!(v, "    wire             cw_mode = codeword[{}];", w - 1);
    let _ = writeln!(v, "    wire             cw_last = codeword[{}];", w - 2);
    let _ = writeln!(
        v,
        "    wire [{}:0]      cw_data = codeword[{}:0];",
        c - 1,
        c - 1
    );
    v.push('\n');
    let _ = writeln!(
        v,
        "    // Controller (5 state/flag flip-flops, as synthesized in the paper)."
    );
    let _ = writeln!(v, "    localparam [1:0] AWAIT_HEADER  = 2'd0;");
    let _ = writeln!(v, "    localparam [1:0] IN_SLICE      = 2'd1;");
    let _ = writeln!(v, "    localparam [1:0] AWAIT_LITERAL = 2'd2;");
    let _ = writeln!(v, "    reg [1:0]        state;");
    let _ = writeln!(v, "    reg              fill_latch;");
    let _ = writeln!(v, "    reg [{}:0]       group_idx;", gidx_bits.max(1) - 1);
    v.push('\n');
    let _ = writeln!(v, "    // data == m marks the spare no-op value.");
    let _ = writeln!(v, "    wire is_spare = (cw_data == {c}'d{m});");
    v.push('\n');
    let _ = writeln!(v, "    integer i;");
    let _ = writeln!(v, "    always @(posedge clk or negedge rst_n) begin");
    let _ = writeln!(v, "        if (!rst_n) begin");
    let _ = writeln!(v, "            state       <= AWAIT_HEADER;");
    let _ = writeln!(v, "            fill_latch  <= 1'b0;");
    let _ = writeln!(v, "            group_idx   <= 0;");
    let _ = writeln!(v, "            slice       <= {m}'d0;");
    let _ = writeln!(v, "            slice_valid <= 1'b0;");
    let _ = writeln!(v, "        end else begin");
    let _ = writeln!(v, "            slice_valid <= 1'b0;");
    let _ = writeln!(v, "            if (codeword_valid) begin");
    let _ = writeln!(v, "                case (state)");
    let _ = writeln!(v, "                AWAIT_HEADER: begin");
    let _ = writeln!(v, "                    fill_latch <= cw_mode;");
    let _ = writeln!(
        v,
        "                    // Fill, with an optional merged first flip."
    );
    let _ = writeln!(v, "                    for (i = 0; i < {m}; i = i + 1)");
    let _ = writeln!(
        v,
        "                        slice[i] <= (!is_spare && cw_data == i) ? ~cw_mode : cw_mode;"
    );
    let _ = writeln!(
        v,
        "                    state       <= cw_last ? AWAIT_HEADER : IN_SLICE;"
    );
    let _ = writeln!(v, "                    slice_valid <= cw_last;");
    let _ = writeln!(v, "                end");
    let _ = writeln!(v, "                IN_SLICE: begin");
    let _ = writeln!(v, "                    if (cw_mode) begin");
    let _ = writeln!(
        v,
        "                        // Group-copy header; literal follows."
    );
    let _ = writeln!(
        v,
        "                        group_idx <= cw_data[{}:0];",
        gidx_bits.max(1) - 1
    );
    let _ = writeln!(v, "                        state     <= AWAIT_LITERAL;");
    let _ = writeln!(v, "                    end else begin");
    let _ = writeln!(v, "                        if (!is_spare)");
    let _ = writeln!(
        v,
        "                            slice[cw_data] <= ~fill_latch;"
    );
    let _ = writeln!(
        v,
        "                        state       <= cw_last ? AWAIT_HEADER : IN_SLICE;"
    );
    let _ = writeln!(v, "                        slice_valid <= cw_last;");
    let _ = writeln!(v, "                    end");
    let _ = writeln!(v, "                end");
    let _ = writeln!(v, "                AWAIT_LITERAL: begin");
    let _ = writeln!(
        v,
        "                    // Write the literal into group_idx's window."
    );
    let _ = writeln!(v, "                    for (i = 0; i < {c}; i = i + 1)");
    let _ = writeln!(
        v,
        "                        if (group_idx * {c} + i < {m}) slice[group_idx * {c} + i] <= cw_data[i];"
    );
    let _ = writeln!(
        v,
        "                    state       <= cw_last ? AWAIT_HEADER : IN_SLICE;"
    );
    let _ = writeln!(v, "                    slice_valid <= cw_last;");
    let _ = writeln!(v, "                end");
    let _ = writeln!(v, "                default: state <= AWAIT_HEADER;");
    let _ = writeln!(v, "                endcase");
    let _ = writeln!(v, "            end");
    let _ = writeln!(v, "        end");
    let _ = writeln!(v, "    end");
    v.push('\n');
    let _ = writeln!(v, "endmodule");
    v
}

fn is_verilog_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(m: u32) -> String {
        generate_verilog(SliceCode::for_chains(m), "decomp")
    }

    #[test]
    fn module_skeleton_present() {
        let v = gen(100);
        assert!(v.starts_with("// Selective-encoding decompressor"));
        assert!(v.contains("module decomp ("));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn port_widths_match_the_code() {
        // m = 100 → c = 7 → w = 9.
        let v = gen(100);
        assert!(v.contains("input  wire [8:0]      codeword,"), "{v}");
        assert!(v.contains("output reg  [99:0]      slice,"));
        assert!(v.contains("wire [6:0]      cw_data = codeword[6:0];"));
        assert!(v.contains("wire is_spare = (cw_data == 7'd100);"));
    }

    #[test]
    fn controller_states_encoded() {
        let v = gen(16);
        for s in ["AWAIT_HEADER", "IN_SLICE", "AWAIT_LITERAL"] {
            assert!(v.contains(s), "missing state {s}");
        }
        assert!(v.contains("fill_latch <= cw_mode;"));
    }

    #[test]
    fn reset_clears_everything() {
        let v = gen(8);
        assert!(v.contains("if (!rst_n) begin"));
        assert!(v.contains("state       <= AWAIT_HEADER;"));
        assert!(v.contains("slice       <= 8'd0;"));
    }

    #[test]
    fn group_window_guard_present() {
        // The partial last group must be clipped to m.
        let v = gen(10); // c = 4, last group is 2 wide
        assert!(v.contains("if (group_idx * 4 + i < 10)"));
    }

    #[test]
    fn custom_module_names_accepted() {
        let v = generate_verilog(SliceCode::for_chains(8), "cpu_decomp_w5");
        assert!(v.contains("module cpu_decomp_w5 ("));
    }

    #[test]
    #[should_panic(expected = "invalid Verilog module name")]
    fn bad_module_name_rejected() {
        generate_verilog(SliceCode::for_chains(8), "1bad-name");
    }

    #[test]
    fn balanced_structure() {
        let v = gen(64);
        assert_eq!(v.matches("module ").count(), 1);
        assert_eq!(v.matches("endmodule").count(), 1);
        assert_eq!(v.matches("case (state)").count(), 1);
        assert_eq!(v.matches("endcase").count(), 1);
        // begin/end balance.
        let begins = v.matches("begin").count();
        let ends = v.split_whitespace().filter(|w| *w == "end").count();
        assert_eq!(begins, ends, "begin/end imbalance:\n{v}");
    }
}
