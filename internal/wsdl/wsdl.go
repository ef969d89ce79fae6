// Package wsdl implements a GWSDL-style service description language for
// PPerfGrid grid services.
//
// A Definition document describes one deployable grid service: its name,
// the PortTypes it exposes, and the operations of each PortType with their
// named input parameters and a human-readable statement of the operation's
// semantics. Client stubs download a service's Definition from the hosting
// container and validate every call against it before marshalling, playing
// the role of the generated WSDL2Java stubs in the paper's Services Layer.
//
// The paper's Tables 1–3 are exactly such PortType descriptions; package
// core and package ogsi publish them programmatically through this package.
package wsdl

import (
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
)

// Param is one named input parameter of an operation. All PPerfGrid
// parameters are strings on the wire; Repeated marks trailing parameters
// that may appear any number of times (e.g. the Foci list of getPR).
type Param struct {
	Name     string `xml:"name,attr"`
	Repeated bool   `xml:"repeated,attr,omitempty"`
}

// Operation describes one invocable operation of a PortType.
type Operation struct {
	Name string `xml:"name,attr"`
	// Doc is the operation-semantics text, as in the paper's tables.
	Doc    string  `xml:"documentation"`
	Params []Param `xml:"input>param"`
	// Returns documents the shape of the returned string array.
	Returns string `xml:"output>documentation"`
}

// PortType is a named group of operations, e.g. "GridService", "Factory",
// "Application", "Execution".
type PortType struct {
	Name       string      `xml:"name,attr"`
	Operations []Operation `xml:"operation"`
}

// Definition is a full service description document.
type Definition struct {
	XMLName   xml.Name   `xml:"definitions"`
	Service   string     `xml:"service,attr"`
	Endpoint  string     `xml:"endpoint,attr,omitempty"`
	PortTypes []PortType `xml:"portType"`
}

// Errors reported by validation and lookup.
var (
	ErrUnknownOperation = errors.New("wsdl: unknown operation")
	ErrBadArity         = errors.New("wsdl: wrong parameter count")
)

// New builds a Definition for a service exposing the given PortTypes.
func New(service string, portTypes ...PortType) *Definition {
	return &Definition{Service: service, PortTypes: portTypes}
}

// Clone returns a deep copy of d, so containers can publish per-instance
// endpoints without sharing mutable state.
func (d *Definition) Clone() *Definition {
	out := &Definition{Service: d.Service, Endpoint: d.Endpoint}
	out.PortTypes = make([]PortType, len(d.PortTypes))
	for i, pt := range d.PortTypes {
		ops := make([]Operation, len(pt.Operations))
		for j, op := range pt.Operations {
			params := make([]Param, len(op.Params))
			copy(params, op.Params)
			ops[j] = Operation{Name: op.Name, Doc: op.Doc, Params: params, Returns: op.Returns}
		}
		out.PortTypes[i] = PortType{Name: pt.Name, Operations: ops}
	}
	return out
}

// Merge returns a new Definition combining the PortTypes of d and extra.
// PortTypes in extra with the same name as one in d replace it.
func (d *Definition) Merge(extra ...PortType) *Definition {
	out := d.Clone()
	for _, pt := range extra {
		replaced := false
		for i := range out.PortTypes {
			if out.PortTypes[i].Name == pt.Name {
				out.PortTypes[i] = pt
				replaced = true
				break
			}
		}
		if !replaced {
			out.PortTypes = append(out.PortTypes, pt)
		}
	}
	return out
}

// Lookup finds the named operation across all PortTypes.
func (d *Definition) Lookup(op string) (*Operation, error) {
	for i := range d.PortTypes {
		for j := range d.PortTypes[i].Operations {
			if d.PortTypes[i].Operations[j].Name == op {
				return &d.PortTypes[i].Operations[j], nil
			}
		}
	}
	return nil, fmt.Errorf("%w: %q on service %q", ErrUnknownOperation, op, d.Service)
}

// PortTypeNames returns the sorted names of all PortTypes.
func (d *Definition) PortTypeNames() []string {
	names := make([]string, 0, len(d.PortTypes))
	for _, pt := range d.PortTypes {
		names = append(names, pt.Name)
	}
	sort.Strings(names)
	return names
}

// OperationNames returns the sorted names of all operations across
// PortTypes.
func (d *Definition) OperationNames() []string {
	var names []string
	for _, pt := range d.PortTypes {
		for _, op := range pt.Operations {
			names = append(names, op.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Validate checks an outgoing call's operation name and argument count
// against the definition. Operations whose final parameter is Repeated
// accept any count >= len(Params)-1.
func (d *Definition) Validate(op string, args []string) error {
	o, err := d.Lookup(op)
	if err != nil {
		return err
	}
	min := len(o.Params)
	variadic := false
	if n := len(o.Params); n > 0 && o.Params[n-1].Repeated {
		variadic = true
		min = n - 1
	}
	if variadic {
		if len(args) < min {
			return fmt.Errorf("%w: %s requires at least %d args, got %d", ErrBadArity, op, min, len(args))
		}
		return nil
	}
	if len(args) != min {
		return fmt.Errorf("%w: %s requires %d args, got %d", ErrBadArity, op, min, len(args))
	}
	return nil
}

// Marshal renders the Definition as an XML document.
func (d *Definition) Marshal() ([]byte, error) {
	type defn Definition // avoid recursive MarshalXML
	body, err := xml.MarshalIndent((*defn)(d), "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), body...), nil
}

// Parse decodes a Definition document.
func Parse(data []byte) (*Definition, error) {
	var d Definition
	if err := xml.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("wsdl: parse: %w", err)
	}
	if d.Service == "" {
		return nil, errors.New("wsdl: parse: missing service name")
	}
	return &d, nil
}

// Op is a convenience constructor for Operation.
func Op(name, doc string, params ...Param) Operation {
	return Operation{Name: name, Doc: doc, Params: params}
}

// P constructs a required Param; PRep constructs a repeated (variadic) one.
func P(name string) Param    { return Param{Name: name} }
func PRep(name string) Param { return Param{Name: name, Repeated: true} }
