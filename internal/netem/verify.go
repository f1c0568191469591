package netem

import "fmt"

// BacklogAuditor lets queueing disciplines defined outside this package
// expose an internal-consistency check to AuditQdisc: implementations verify
// their cached byte/packet counters against actual queue contents and return
// a descriptive error on the first mismatch.
type BacklogAuditor interface {
	AuditBacklog() error
}

// audit recomputes the FIFO's byte total from its contents and compares it
// against the cached counter.
func (f *fifo) audit(name string) error {
	var bytes int64
	for i := f.head; i < len(f.pkts); i++ {
		if f.pkts[i] == nil {
			return fmt.Errorf("%s: nil packet at live position %d", name, i)
		}
		bytes += int64(f.pkts[i].WireSize)
	}
	if bytes != f.bytes {
		return fmt.Errorf("%s: cached %d bytes, contents sum to %d", name, f.bytes, bytes)
	}
	if f.head < 0 || f.head > len(f.pkts) {
		return fmt.Errorf("%s: head %d outside [0, %d]", name, f.head, len(f.pkts))
	}
	return nil
}

// AuditQdisc verifies a discipline's cached byte counters against its actual
// queue contents: FIFO byte totals, the PrioQdisc shared-buffer total and
// packet count against the per-band sums, the two NDP queues, and the ExpressPass credit queue plus
// its inner data discipline. Instrumentation and fault-injection wrappers are
// unwrapped; disciplines from other packages are checked through
// BacklogAuditor when they implement it, and pass vacuously otherwise.
func AuditQdisc(q Qdisc) error {
	switch v := q.(type) {
	case *tracedQdisc:
		return AuditQdisc(v.Qdisc)
	case *ImpairedQdisc:
		return AuditQdisc(v.inner)
	case *FIFO:
		return v.q.audit("fifo")
	case *SelectiveDrop:
		return v.q.audit("selective-drop")
	case *PrioQdisc:
		var total int64
		var packets int
		for i := range v.bands {
			if err := v.bands[i].audit(fmt.Sprintf("prio band %d", i)); err != nil {
				return err
			}
			total += v.bands[i].size()
			packets += v.bands[i].len()
		}
		if total != v.total {
			return fmt.Errorf("prio: cached total %d, bands sum to %d", v.total, total)
		}
		if packets != v.packets {
			return fmt.Errorf("prio: cached count %d packets, bands hold %d", v.packets, packets)
		}
		return nil
	case *NDPQueue:
		if err := v.ctrl.audit("ndp ctrl"); err != nil {
			return err
		}
		return v.data.audit("ndp data")
	case *XPassQdisc:
		if err := v.credits.audit("xpass credits"); err != nil {
			return err
		}
		return AuditQdisc(v.cfg.Data)
	default:
		if a, ok := q.(BacklogAuditor); ok {
			return a.AuditBacklog()
		}
		return nil
	}
}
