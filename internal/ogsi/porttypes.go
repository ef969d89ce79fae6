package ogsi

import "pperfgrid/internal/wsdl"

// This file publishes the OGSA PortTypes of the paper's Table 3 as WSDL
// definitions, so clients can introspect the standard interfaces exactly
// as they introspect application-specific ones.

// GridServicePortType describes the interface implemented by every grid
// service instance.
func GridServicePortType() wsdl.PortType {
	return wsdl.PortType{Name: "GridService", Operations: []wsdl.Operation{
		wsdl.Op(OpFindServiceData,
			"Query a variety of information about the Grid service instance, including basic introspection information (handle, reference, primary key), richer per-interface information, and service-specific information. Extensible support for query languages: a plain name returns that service data element; a /-prefixed path is evaluated by the service data query language.",
			wsdl.P("queryExpression")),
		wsdl.Op(OpSetTerminationTime,
			"Set (and get) termination time for Grid service instance. Accepts an RFC3339 timestamp, a relative +<seconds> form, or \"none\" to cancel scheduled termination; returns the new termination time.",
			wsdl.P("terminationTime")),
		wsdl.Op(OpDestroy,
			"Terminate Grid service instance."),
		wsdl.Op(OpGetServiceDefinition,
			"Return this service's WSDL definition document."),
	}}
}

// FactoryPortType describes the Factory interface.
func FactoryPortType() wsdl.PortType {
	return wsdl.PortType{Name: "Factory", Operations: []wsdl.Operation{
		wsdl.Op(OpCreateService,
			"Create new Grid service instance; returns its Grid Service Handle. Parameters are passed to the service constructor.",
			wsdl.PRep("constructorParam")),
		wsdl.Op(OpCreateServices,
			"Plural CreateService: create one Grid service instance per parameter, each constructed with that single parameter; returns one Grid Service Handle per parameter, in order. A batch of instantiations costs one round trip instead of one per instance.",
			wsdl.PRep("constructorParam")),
	}}
}

// HandleMapPortType describes the HandleMap interface.
func HandleMapPortType() wsdl.PortType {
	return wsdl.PortType{Name: "HandleMap", Operations: []wsdl.Operation{
		wsdl.Op(OpFindByHandle,
			"Return Grid Service Reference currently associated with supplied Grid Service Handle, plus a liveness indicator.",
			wsdl.P("handle")),
	}}
}

// NotificationSourcePortType describes the NotificationSource interface.
func NotificationSourcePortType() wsdl.PortType {
	return wsdl.PortType{Name: "NotificationSource", Operations: []wsdl.Operation{
		wsdl.Op(OpSubscribe,
			"Subscribe to notifications of service-related events, based on message type and interest statement. Allows for delivery via third party messaging services.",
			wsdl.P("topic"), wsdl.P("sinkHandle")),
	}}
}

// NotificationSinkPortType describes the NotificationSink interface.
func NotificationSinkPortType() wsdl.PortType {
	return wsdl.PortType{Name: "NotificationSink", Operations: []wsdl.Operation{
		wsdl.Op(OpDeliverNotification,
			"Carry out asynchronous delivery of notification messages.",
			wsdl.P("topic"), wsdl.P("message")),
	}}
}

// FactoryDefinition is the full definition of a factory service for the
// given product type.
func FactoryDefinition(productType string) *wsdl.Definition {
	return wsdl.New(productType+"Factory", FactoryPortType())
}

// HandleMapDefinition is the full definition of the handle-map service.
func HandleMapDefinition() *wsdl.Definition {
	return wsdl.New("HandleMap", HandleMapPortType())
}
